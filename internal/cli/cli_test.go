package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"golisa/internal/bundle"
	"golisa/internal/otrace"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

func TestParseMode(t *testing.T) {
	for name, want := range map[string]sim.Mode{
		"interpretive": sim.Interpretive,
		"compiled":     sim.Compiled,
		"prebound":     sim.CompiledPrebound,
		"generated":    sim.Generated,
	} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	// Every mode's String() — the name summaries, stream records and
	// ledger engine keys carry — parses back to the mode.
	for m := sim.Mode(0); !strings.HasPrefix(m.String(), "Mode("); m++ {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestLoadModelBuiltinAndFile(t *testing.T) {
	if m := LoadModel("simple16"); m.Model.Name != "simple16" {
		t.Errorf("builtin load gave model %q", m.Model.Name)
	}
	// A .lisa file path loads under its base name.
	src, err := os.ReadFile("../models/simple16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mycpu.lisa")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if m := LoadModel(path); m.Model.Name != "mycpu" {
		t.Errorf("file load gave model %q, want mycpu", m.Model.Name)
	}
}

func TestCommonRegisterDefaults(t *testing.T) {
	var c Common
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse([]string{"-mode", "interpretive", "-max", "42"}); err != nil {
		t.Fatal(err)
	}
	if c.Model != "simple16" || c.Mode != "interpretive" || c.Max != 42 {
		t.Errorf("parsed Common = %+v", c)
	}
}

// TestObsSetup builds the full observability session — flight, profiler
// and live server on an ephemeral port — runs a program through it, and
// checks the pieces saw the run.
func TestObsSetup(t *testing.T) {
	m, mode := (&Common{Model: "simple16", Mode: "compiled", Max: 1000}).Load()
	s, prog, err := m.AssembleAndLoad("LDI A1, 7\nHALT\n", mode)
	if err != nil {
		t.Fatal(err)
	}
	var o Obs
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse([]string{"-flight", "16", "-top", "3", "-http", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	metrics := trace.NewMetrics()
	sess := o.Setup(nil, m, s, prog, "t.s", metrics)
	if sess.Trace == nil {
		t.Fatal("Setup minted no trace")
	}
	if sess.Flight == nil || sess.Profiler == nil || sess.Server == nil || sess.Metrics != metrics {
		t.Fatalf("incomplete session: %+v", sess)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("did not halt")
	}
	sess.Server.Finish()
	if sess.Profiler.Steps() != s.Step() {
		t.Errorf("profiler saw %d steps, sim ran %d", sess.Profiler.Steps(), s.Step())
	}
	if metrics.Steps != s.Step() {
		t.Errorf("metrics saw %d steps, sim ran %d", metrics.Steps, s.Step())
	}
	// The live server is reachable on the ephemeral port.
	resp, err := http.Get("http://" + sess.srvL.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "lisa_steps_total") {
		t.Errorf("/metrics missing lisa_steps_total:\n%s", body)
	}
}

// TestObsRecordSetup runs a -record session end to end: the session
// recorder sees the run, and the written file verifies under replay.
func TestObsRecordSetup(t *testing.T) {
	m, mode := (&Common{Model: "simple16", Mode: "compiled", Max: 1000}).Load()
	s, prog, err := m.AssembleAndLoad("LDI A1, 7\nHALT\n", mode)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.lrec")
	var o Obs
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse([]string{"-record", path, "-record-every", "4", "-flight", "0"}); err != nil {
		t.Fatal(err)
	}
	sess := o.Setup(nil, m, s, prog, "t.s", nil)
	if sess.Recorder == nil {
		t.Fatal("no recorder in session")
	}
	if err := sess.Protect(func() error { _, e := s.Run(1000); return e }); err != nil {
		t.Fatal(err)
	}
	if err := sess.Recorder.Close(); err != nil {
		t.Fatal(err)
	}
	recd, err := OpenRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recd.Complete || recd.FinalStep != s.Step() {
		t.Fatalf("recording: complete=%v final=%d, sim ran %d", recd.Complete, recd.FinalStep, s.Step())
	}
	rp, err := replay.NewReplayer(recd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Verify(); err != nil {
		t.Fatalf("recorded session does not verify: %v", err)
	}
}

// TestObsBundle runs a -bundle session end to end: the written tar.gz
// reads back with every expected section, the manifest and the span tree
// carry the session's TraceID, and the bundled perf record carries the
// same identity — the bundle joins the run's other sinks.
func TestObsBundle(t *testing.T) {
	m, mode := (&Common{Model: "simple16", Mode: "compiled", Max: 1000}).Load()
	s, prog, err := m.AssembleAndLoad("LDI A1, 7\nHALT\n", mode)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.tar.gz")
	var o Obs
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse([]string{"-bundle", path, "-flight", "16"}); err != nil {
		t.Fatal(err)
	}
	tr := otrace.New("bundle test")
	sess := o.Setup(tr, m, s, prog, "t.s", nil)
	if sess.Analyzer == nil || sess.Cover == nil || sess.Profiler == nil {
		t.Fatal("-bundle did not arm the analyzer/coverage/profiler stack")
	}
	n, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	sess.WriteBundle(n, time.Millisecond)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bn, err := bundle.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Meta.TraceID != tr.ID().String() {
		t.Errorf("bundle TraceID = %s, want %s", bn.Meta.TraceID, tr.ID())
	}
	if bn.Meta.Model != "simple16" || bn.Meta.Program != "t" {
		t.Errorf("bundle meta = %+v", bn.Meta)
	}
	for _, want := range []string{
		bundle.SpansFile, bundle.FlightFile, bundle.ProfileFile,
		bundle.AnalyzeFile, bundle.CoverageFile, bundle.PerfFile,
		bundle.BuildFile, bundle.ConfigFile,
	} {
		if bn.Section(want) == nil {
			t.Errorf("bundle missing section %s (have %v)", want, bn.Order)
		}
	}
	doc, err := otrace.ReadDoc(bytes.NewReader(bn.Section(bundle.SpansFile)))
	if err != nil {
		t.Fatalf("spans.json: %v", err)
	}
	if doc.TraceID != tr.ID().String() {
		t.Errorf("spans.json TraceID = %s, want %s", doc.TraceID, tr.ID())
	}
	var rec struct {
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
	}
	if err := json.Unmarshal(bn.Section(bundle.PerfFile), &rec); err != nil {
		t.Fatalf("perf.json: %v", err)
	}
	if rec.TraceID != tr.ID().String() || rec.SpanID != tr.Root().ID().String() {
		t.Errorf("perf record identity (%s, %s), want (%s, %s)",
			rec.TraceID, rec.SpanID, tr.ID(), tr.Root().ID())
	}
	// And the offline inspector renders it.
	var insp strings.Builder
	if err := bn.WriteInspect(&insp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace " + tr.ID().String(), "spans.json", "perf.json"} {
		if !strings.Contains(insp.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, insp.String())
		}
	}
}

// TestOpenRecorderError covers the -record failure path: unwritable
// paths surface as errors (for the one-line exit), not panics.
func TestOpenRecorderError(t *testing.T) {
	m, mode := (&Common{Model: "simple16", Mode: "compiled", Max: 10}).Load()
	s, _, err := m.AssembleAndLoad("HALT\n", mode)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenRecorder(s, m.Source, filepath.Join(t.TempDir(), "no", "such", "dir", "x.lrec"), 0)
	if err == nil || !strings.Contains(err.Error(), "-record") {
		t.Errorf("OpenRecorder error = %v, want -record context", err)
	}
}

// TestOpenRecordingError covers the -replay failure paths: missing files
// and non-recordings surface as errors naming the file.
func TestOpenRecordingError(t *testing.T) {
	if _, err := OpenRecording(filepath.Join(t.TempDir(), "missing.lrec")); err == nil {
		t.Error("OpenRecording accepted a missing file")
	}
	path := filepath.Join(t.TempDir(), "garbage.lrec")
	if err := os.WriteFile(path, []byte("not a recording at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenRecording(path)
	if err == nil || !strings.Contains(err.Error(), "garbage.lrec") {
		t.Errorf("OpenRecording error = %v, want file name in context", err)
	}
}
