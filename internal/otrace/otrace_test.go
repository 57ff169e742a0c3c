package otrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDsAreDistinctAndNonZero(t *testing.T) {
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 100; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("generated a zero id: %v %v", tid, sid)
		}
		if seenT[tid] || seenS[sid] {
			t.Fatalf("duplicate id after %d draws", i)
		}
		seenT[tid], seenS[sid] = true, true
	}
	if got := NewTraceID().String(); len(got) != 32 {
		t.Errorf("TraceID hex length = %d, want 32", len(got))
	}
	if got := NewSpanID().String(); len(got) != 16 {
		t.Errorf("SpanID hex length = %d, want 16", len(got))
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	ctx := Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tp := ctx.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q is not a version-00 sampled header", tp)
	}
	got, err := Parse(tp)
	if err != nil {
		t.Fatalf("Parse(%q): %v", tp, err)
	}
	if got != ctx {
		t.Errorf("round trip changed the context: %+v != %+v", got, ctx)
	}
}

func TestParseRejectsMalformedHeaders(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
		"00+4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad delimiter

		// W3C allows lower-case hex only, and after the flags of a future
		// version only the end of the value or a dash.
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01xyz",
	}
	for _, tp := range bad {
		if _, err := Parse(tp); err == nil {
			t.Errorf("Parse(%q) accepted a malformed header", tp)
		}
	}
	// Unknown (non-ff) versions still parse their leading fields.
	if _, err := Parse("42-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestJoinSharesTraceIDAndParents(t *testing.T) {
	parent := New("client")
	ctx := parent.Context()
	child := Join(ctx, "server")
	if child.ID() != parent.ID() {
		t.Fatalf("Join changed the trace id: %s != %s", child.ID(), parent.ID())
	}
	doc := child.Export()
	if doc.Spans[0].Parent != ctx.SpanID.String() {
		t.Errorf("joined root parent = %q, want remote span %s", doc.Spans[0].Parent, ctx.SpanID)
	}
	// An invalid context degrades to a fresh trace instead of corrupting.
	fresh := Join(Context{}, "orphan")
	if fresh.ID().IsZero() || fresh.ID() == parent.ID() {
		t.Errorf("Join with invalid context did not mint a fresh trace")
	}
}

// TestSpanBoundsMatchExport checks Bounds reports the offsets Export
// renders: an ended span's start_us and dur_us to the bit, and an open
// span's end following the clock.
func TestSpanBoundsMatchExport(t *testing.T) {
	tr := New("bounds")
	sp := tr.Start(nil, "work")
	sp.End()
	start, end := sp.Bounds()
	for _, j := range tr.Export().Spans {
		if j.Name != "work" {
			continue
		}
		if us := float64(start.Nanoseconds()) / 1e3; us != j.StartUs {
			t.Errorf("Bounds start %v µs, exported start_us %v", us, j.StartUs)
		}
		if us := float64((end - start).Nanoseconds()) / 1e3; us != j.DurUs {
			t.Errorf("Bounds duration %v µs, exported dur_us %v", us, j.DurUs)
		}
	}
	open := tr.Start(nil, "open")
	_, e1 := open.Bounds()
	time.Sleep(time.Millisecond)
	if _, e2 := open.Bounds(); e2-e1 < time.Millisecond {
		t.Errorf("open span's end moved %v over a 1ms sleep", e2-e1)
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New("batch")
	a := tr.Start(nil, "assemble")
	a.SetAttr("sources", 3)
	a.End()
	job := tr.Start(nil, "job:fir")
	run := tr.Start(job, "run")
	run.End()
	job.End()
	open := tr.Start(nil, "never-ends")
	_ = open

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadDoc(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != tr.ID().String() {
		t.Errorf("doc trace id %q != %q", doc.TraceID, tr.ID())
	}
	if len(doc.Spans) != 5 {
		t.Fatalf("exported %d spans, want 5", len(doc.Spans))
	}
	byName := map[string]SpanJSON{}
	for _, sp := range doc.Spans {
		byName[sp.Name] = sp
	}
	if byName["run"].Parent != byName["job:fir"].SpanID {
		t.Errorf("run span parent = %q, want job span %q", byName["run"].Parent, byName["job:fir"].SpanID)
	}
	if byName["assemble"].Parent != byName["batch"].SpanID {
		t.Errorf("assemble span parent = %q, want root %q", byName["assemble"].Parent, byName["batch"].SpanID)
	}
	if v, ok := byName["assemble"].Attrs["sources"]; !ok || v != float64(3) {
		t.Errorf("assemble attrs = %v, want sources=3", byName["assemble"].Attrs)
	}
	if byName["never-ends"].Ended {
		t.Errorf("unfinished span exported as ended")
	}
	if !byName["run"].Ended {
		t.Errorf("ended span exported as unfinished")
	}

	var txt bytes.Buffer
	if err := doc.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace " + doc.TraceID, "batch", "  job:fir", "    run", "(unfinished)"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text tree missing %q:\n%s", want, txt.String())
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start(nil, "job")
				sp.SetAttr("worker", w)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.Root().End()
	if got := tr.Len(); got != 1+8*50 {
		t.Fatalf("recorded %d spans, want %d", got, 1+8*50)
	}
	doc := tr.Export()
	for _, sp := range doc.Spans {
		if sp.Name == "job" && sp.Parent != tr.Root().ID().String() {
			t.Fatalf("job span parented under %q, want root", sp.Parent)
		}
	}
	// The document must be valid JSON end to end.
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported document is not valid JSON")
	}
}
