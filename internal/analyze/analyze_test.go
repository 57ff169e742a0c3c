package analyze_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golisa/internal/analyze"
	"golisa/internal/core"
	"golisa/internal/profile"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// hazard16 is a 3-stage machine built to emit every hazard class the
// attribution engine classifies, and hazardProg a program that trips each
// of them; both live in internal/models/testdata, shared with the
// simulator's snapshot tests.
var (
	hazard16   = readFixture("hazard16.lisa")
	hazardProg = readFixture("hazard16.s")
)

func readFixture(name string) string {
	b, err := os.ReadFile(filepath.Join("..", "models", "testdata", name))
	if err != nil {
		panic(err)
	}
	return string(b)
}

func runHazard(t *testing.T, mode sim.Mode, extra ...trace.Observer) (*sim.Simulator, uint64) {
	t.Helper()
	mach, err := core.LoadMachine("hazard16", hazard16)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(hazardProg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) > 0 {
		s.SetObserver(trace.Fanout(extra...))
	}
	n, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("program did not halt")
	}
	return s, n
}

// TestAttributionInvariant pins the cycle-reconciliation contract: the
// profiler's issue/penalty/idle split and the analyzer's per-cause CPI
// breakdown both sum exactly to the simulated control steps, every hazard
// class shows up, and interpreted and compiled engines attribute
// identically.
func TestAttributionInvariant(t *testing.T) {
	var reports []string
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			a := analyze.New()
			p := profile.New(profile.Options{Source: "hazard.s", Model: "hazard16"})
			_, steps := runHazard(t, mode, a, p)

			// Profiler invariant: every control step is charged somewhere.
			var prof uint64
			for _, site := range p.Sites() {
				prof += site.Cycles()
			}
			prof += p.IdleCycles()
			if prof != steps {
				t.Errorf("profiler: Σissue+Σpenalty+idle = %d, want %d steps", prof, steps)
			}

			// Analyzer invariant: the CPI buckets sum to the same total.
			rep := a.Report()
			var sum uint64
			for _, b := range rep.Breakdown {
				sum += b.Cycles
			}
			if sum != steps || rep.Steps != steps {
				t.Errorf("analyzer: buckets sum to %d (Steps=%d), want %d", sum, rep.Steps, steps)
			}
			if p.Steps() != rep.Steps {
				t.Errorf("profiler counted %d steps, analyzer %d", p.Steps(), rep.Steps)
			}

			// Every hazard class must be attributed.
			bucket := map[string]uint64{}
			for _, b := range rep.Breakdown {
				bucket[b.Name] = b.Cycles
			}
			for _, cause := range []string{"data", "control", "structural", "explicit"} {
				if bucket[cause] == 0 {
					t.Errorf("no %s penalty cycles attributed (breakdown %v)", cause, rep.Breakdown)
				}
			}
			if bucket["issue"] == 0 {
				t.Error("no issue cycles")
			}

			// The data hazards must name their gating resource.
			foundWait := false
			for _, rc := range rep.Resources {
				if rc.Resource == "mem_wait" && rc.Events > 0 {
					foundWait = true
				}
			}
			if !foundWait {
				t.Errorf("data stalls not attributed to mem_wait (resources %v)", rep.Resources)
			}
			// Flushes must be classified as control hazards.
			for _, e := range rep.Events {
				if e.Cause == "control" && e.Flushes == 0 {
					t.Errorf("control hazards recorded no flush events (%v)", rep.Events)
				}
			}
			// The what-if table covers every cause that cost cycles.
			for _, cause := range []string{"data", "control", "structural", "explicit"} {
				found := false
				for _, w := range rep.WhatIf {
					if w.Cause == cause && w.EstSteps == steps-w.Penalty {
						found = true
					}
				}
				if !found {
					t.Errorf("what-if entry for %s missing or inconsistent (%v)", cause, rep.WhatIf)
				}
			}

			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			reports = append(reports, buf.String())
		})
	}
	// All engines must agree byte for byte: attribution reads only
	// committed architectural state, which is mode-invariant.
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Errorf("mode %d report differs from mode 0:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
}

// TestAttributionReplayIdentical records a hazard-heavy run and replays
// it with a second analyzer riding the verified re-execution: the replayed
// report must match the live one byte for byte.
func TestAttributionReplayIdentical(t *testing.T) {
	mach, err := core.LoadMachine("hazard16", hazard16)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(hazardProg, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	live := analyze.New()
	var rec bytes.Buffer
	r := replay.NewRecorder(s, hazard16, &rec, replay.Options{Every: 8})
	s.SetObserver(trace.Fanout(live, r))
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var liveJSON bytes.Buffer
	if err := live.Report().WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}

	parsed, err := replay.Parse(rec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := replay.NewReplayer(parsed)
	if err != nil {
		t.Fatal(err)
	}
	replayed := analyze.New()
	rp.SetExtra(replayed)
	if _, err := rp.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	var replayJSON bytes.Buffer
	if err := replayed.Report().WriteJSON(&replayJSON); err != nil {
		t.Fatal(err)
	}
	if liveJSON.String() != replayJSON.String() {
		t.Errorf("replayed attribution differs from live run:\nlive:\n%s\nreplayed:\n%s",
			liveJSON.String(), replayJSON.String())
	}
	if !strings.Contains(liveJSON.String(), `"mem_wait"`) {
		t.Error("live report never attributed the mem_wait interlock")
	}
}

// TestReportWriters smoke-tests the text and HTML exporters on a real run.
func TestReportWriters(t *testing.T) {
	a := analyze.New()
	_, steps := runHazard(t, sim.Interpretive, a)
	rep := a.Report()

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cycle breakdown", "mem_wait", "what-if", "hazard attribution: hazard16"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	var html bytes.Buffer
	if err := rep.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "mem_wait", "what-if", "spark"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("html report missing %q", want)
		}
	}
	if steps == 0 {
		t.Fatal("no steps simulated")
	}
}

// TestAnalyzerReattachResets pins the OnAttach contract: re-attaching the
// same analyzer restarts attribution from zero (the replayer re-announces
// the topology on every seek).
func TestAnalyzerReattachResets(t *testing.T) {
	a := analyze.New()
	_, first := runHazard(t, sim.Interpretive, a)
	if a.Steps() != first {
		t.Fatalf("first run: %d steps analyzed, want %d", a.Steps(), first)
	}
	_, second := runHazard(t, sim.Interpretive, a)
	if a.Steps() != second {
		t.Errorf("after re-attach: %d steps analyzed, want %d (state must reset)", a.Steps(), second)
	}
}
