package bundle

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"golisa/internal/otrace"
	"golisa/internal/perf"
)

// capture builds a bundle the way the tools do: a span tree, a perf
// record, a flight dump and the invocation.
func capture(t testing.TB) (*Builder, *otrace.Trace) {
	tr := otrace.New("test-run")
	sp := tr.Start(nil, "run")
	sp.End()
	tr.Root().End()

	b := New(Meta{
		Tool: "lisa-test", Model: "simple16", Mode: "compiled",
		Program: "fir.s", TraceID: tr.ID().String(),
		Traceparent: tr.Context().Traceparent(),
	})
	if err := b.AddFunc(SpansFile, tr.WriteJSON); err != nil {
		t.Fatal(err)
	}
	rec := perf.New(perf.Env{Model: "simple16", Program: "fir", Engine: "compiled",
		TraceID: tr.ID().String(), Time: "2026-08-08T00:00:00Z"})
	rec.Counters = perf.Counters{Cycles: 42, Halted: true}
	rec.Seal()
	if err := b.AddFunc(PerfFile, rec.WriteJSON); err != nil {
		t.Fatal(err)
	}
	b.Add(FlightFile, []byte("flight ring dump\n"))
	b.Add(ConfigFile, []byte(`{"args":["lisa-test"]}`))
	return b, tr
}

func TestBundleRoundTrip(t *testing.T) {
	b, tr := capture(t)
	if b.Len() != 4 {
		t.Fatalf("builder has %d sections, want 4", b.Len())
	}

	var arc bytes.Buffer
	if err := b.WriteTar(&arc); err != nil {
		t.Fatal(err)
	}
	bn, err := Read(bytes.NewReader(arc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if bn.Meta.TraceID != tr.ID().String() {
		t.Errorf("meta trace id %q != %q", bn.Meta.TraceID, tr.ID())
	}
	if len(bn.Meta.Sections) != 4 || len(bn.Order) != 4 {
		t.Fatalf("meta sections %v, order %v, want 4 each", bn.Meta.Sections, bn.Order)
	}
	for i, name := range []string{SpansFile, PerfFile, FlightFile, ConfigFile} {
		if bn.Order[i] != name {
			t.Errorf("order[%d] = %q, want %q (section order must be preserved)", i, bn.Order[i], name)
		}
		if bn.Section(name) == nil {
			t.Errorf("section %s missing after round trip", name)
		}
	}
	if got := string(bn.Section(FlightFile)); got != "flight ring dump\n" {
		t.Errorf("flight section = %q", got)
	}

	// The span section must still parse as a trace doc with the same id,
	// and the perf section must still verify its content address.
	doc, err := otrace.ReadDoc(bytes.NewReader(bn.Section(SpansFile)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != tr.ID().String() {
		t.Errorf("spans doc trace id %q != bundle %q", doc.TraceID, bn.Meta.TraceID)
	}

	var txt bytes.Buffer
	if err := bn.WriteInspect(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"lisa-test", tr.ID().String(), SpansFile, PerfFile, "4 sections", "test-run", "cycles 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a bundle")); err == nil {
		t.Error("Read accepted non-gzip input")
	}
	// An archive whose first entry is not meta.json is rejected.
	b := New(Meta{Tool: "x"})
	b.Add("other.txt", []byte("hi"))
	var arc bytes.Buffer
	if err := b.WriteTar(&arc); err != nil {
		t.Fatal(err)
	}
	bn, err := Read(bytes.NewReader(arc.Bytes()))
	if err != nil || bn.Meta.Tool != "x" {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
}

func TestAddReplacesInPlace(t *testing.T) {
	b := New(Meta{Tool: "x"})
	b.Add("a.txt", []byte("one"))
	b.Add("b.txt", []byte("two"))
	b.Add("a.txt", []byte("three"))
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2 (replace, not append)", b.Len())
	}
	if got := b.Meta().Sections; got[0] != "a.txt" || got[1] != "b.txt" {
		t.Errorf("sections = %v, want [a.txt b.txt]", got)
	}
}

// TestReadBoundsInflation reads an archive whose one section inflates
// past maxInflated: Read must stop there with an error instead of
// inflating it whole.
func TestReadBoundsInflation(t *testing.T) {
	b := New(Meta{Tool: "x"})
	b.Add("zeros.bin", make([]byte, maxInflated+1))
	var arc bytes.Buffer
	if err := b.WriteTar(&arc); err != nil {
		t.Fatal(err)
	}
	_, err := Read(bytes.NewReader(arc.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("a %d-byte archive inflating past %d bytes: err %v", arc.Len(), maxInflated, err)
	}
}

// FuzzBundle feeds arbitrary bytes to Read, which parses outside input
// for lisa-bundle inspect: it returns a bundle or an error, never a panic,
// and inflates no more than maxInflated.
func FuzzBundle(f *testing.F) {
	b, _ := capture(f)
	var arc bytes.Buffer
	if err := b.WriteTar(&arc); err != nil {
		f.Fatal(err)
	}
	f.Add(arc.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		bn, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for _, d := range bn.Files {
			n += len(d)
		}
		if n > maxInflated {
			t.Fatalf("sections hold %d bytes", n)
		}
		if err := bn.WriteInspect(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
