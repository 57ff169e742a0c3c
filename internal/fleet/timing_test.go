package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"golisa/internal/core"
	"golisa/internal/otrace"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// TestFleetTimingFromSpans runs a multi-worker batch under an explicit
// trace and checks that the span tree is the batch's only clock: every
// job's RunFor is its job:<name> span's duration to the bit, QueuedFor
// and Summary.Elapsed are differences of span offsets (from the end of
// the last build phase), the Chrome job slice has the span's start and
// duration, and the worker, steps and outcome the spans carry agree
// with the Result.
func TestFleetTimingFromSpans(t *testing.T) {
	mc, src := loadFIR(t)
	const nJobs = 6
	const workers = 2
	tr := otrace.New("timing")
	cs := NewChromeSpans()
	sum, err := Run(mc, sim.CompiledPrebound, firJobs(src, nJobs),
		Options{Workers: workers, Trace: tr, Chrome: cs})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failed jobs: %+v", sum.Results)
	}
	doc := tr.Export()

	// ns recovers a span offset exactly from its exported microseconds.
	ns := func(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
	byID := map[string]otrace.SpanJSON{}
	var queued time.Duration
	var phases []string
	for _, sp := range doc.Spans {
		byID[sp.SpanID] = sp
		if sp.Parent == sum.SpanID && !strings.HasPrefix(sp.Name, "job:") {
			phases = append(phases, sp.Name)
			queued = max(queued, ns(sp.StartUs)+ns(sp.DurUs))
		}
	}
	if strings.Join(phases, ",") != "assemble,prewarm" {
		t.Errorf("build phases = %v, want assemble, prewarm", phases)
	}
	runSteps := map[string]uint64{} // job span id -> its run span's steps
	for _, sp := range doc.Spans {
		if sp.Name == "run" {
			runSteps[sp.Parent], _ = sp.Attrs["steps"].(uint64)
		}
	}

	slices := map[string]trace.ChromeEvent{}
	for _, e := range cs.events {
		if e.Ph == "X" && e.Cat == "job" {
			slices[e.Name] = e
		}
	}

	var lastEnd time.Duration
	for i, r := range sum.Results {
		sp, ok := byID[r.SpanID]
		if !ok || sp.Name != "job:"+r.Name || !sp.Ended {
			t.Fatalf("job %d: span %s = %+v, want the ended job:%s span", i, r.SpanID, sp, r.Name)
		}
		if got := float64(r.RunFor.Nanoseconds()) / 1e3; got != sp.DurUs {
			t.Errorf("job %d: RunFor %v µs, span dur_us %v", i, got, sp.DurUs)
		}
		start := ns(sp.StartUs)
		if r.QueuedFor != start-queued {
			t.Errorf("job %d: QueuedFor %v, want span start - queue time = %v", i, r.QueuedFor, start-queued)
		}
		if r.QueuedFor < 0 || r.RunFor <= 0 {
			t.Errorf("job %d: bounds not monotonic: queued for %v, ran for %v", i, r.QueuedFor, r.RunFor)
		}
		lastEnd = max(lastEnd, start+ns(sp.DurUs))
		if w, _ := sp.Attrs["worker"].(int); w != r.Worker || w < 0 || w >= workers {
			t.Errorf("job %d: span worker %v, result worker %d, want one of 0..%d", i, sp.Attrs["worker"], r.Worker, workers-1)
		}
		if h, _ := sp.Attrs["halted"].(bool); !h || !r.Halted {
			t.Errorf("job %d: span halted %v, result halted %v, want both true", i, sp.Attrs["halted"], r.Halted)
		}
		if r.Steps == 0 || runSteps[r.SpanID] != r.Steps {
			t.Errorf("job %d: run span steps %d, result steps %d", i, runSteps[r.SpanID], r.Steps)
		}
		e, ok := slices[r.Name]
		if !ok {
			t.Fatalf("job %d: no Chrome slice named %q", i, r.Name)
		}
		if e.Ts != sp.StartUs || e.Dur != sp.DurUs || e.Tid != r.Worker+1 {
			t.Errorf("job %d: Chrome slice ts %v dur %v tid %d, span start %v dur %v worker %d",
				i, e.Ts, e.Dur, e.Tid, sp.StartUs, sp.DurUs, r.Worker)
		}
	}
	if sum.Elapsed != lastEnd-queued {
		t.Errorf("Elapsed %v, want last job end - queue time = %v", sum.Elapsed, lastEnd-queued)
	}
	lat := sum.Latency
	if lat.Max == 0 || lat.P50 > lat.P90 || lat.P90 > lat.P99 || lat.P99 > lat.Max {
		t.Errorf("latency quantiles not ordered: %+v", lat)
	}
	if lat.JobsPerSec <= 0 || lat.Utilization <= 0 || lat.Utilization > 1 {
		t.Errorf("throughput stats out of range: %+v", lat)
	}
}

// chat16 is a minimal machine whose SAY instruction emits one print line,
// for exercising the per-job print cap.
const chat16 = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int n;
  REGISTER bit halt;
  PROGRAM_MEMORY bit[16] pmem[64];
}

OPERATION main {
  ACTIVATION { if (!halt) { fetch } }
}

OPERATION fetch {
  BEHAVIOR {
    ir = pmem[pc];
    pc = pc + 1;
    decode();
  }
}

OPERATION decode {
  DECLARE { GROUP Insn = { say; halt_op }; }
  CODING { ir == Insn }
  ACTIVATION { Insn }
}

OPERATION say {
  CODING { 0b0000 0bx[12] }
  SYNTAX { "SAY" }
  BEHAVIOR { n = n + 1; print("line", n); }
}

OPERATION halt_op {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

// TestFleetMaxPrints checks the per-job print cap: default keeps everything
// under DefaultMaxPrints, a small cap truncates and marks the result, and a
// negative cap disables the limit.
func TestFleetMaxPrints(t *testing.T) {
	mc, err := core.LoadMachine("chat16", chat16)
	if err != nil {
		t.Fatal(err)
	}
	prog := strings.Repeat("SAY\n", 8) + "HALT\n"
	jobs := []Job{{Name: "chatty", Source: prog}}

	run := func(maxPrints int) Result {
		t.Helper()
		sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 1, MaxSteps: 100, MaxPrints: maxPrints})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Fatalf("failed: %+v", sum.Results)
		}
		return sum.Results[0]
	}

	if r := run(0); len(r.Prints) != 8 || r.PrintsTruncated {
		t.Errorf("default cap: %d prints truncated=%v, want all 8 kept", len(r.Prints), r.PrintsTruncated)
	} else if r.Prints[0] != "line 1" || r.Prints[7] != "line 8" {
		t.Errorf("print content wrong: %v", r.Prints)
	}
	if r := run(3); len(r.Prints) != 3 || !r.PrintsTruncated {
		t.Errorf("cap 3: %d prints truncated=%v, want 3 truncated", len(r.Prints), r.PrintsTruncated)
	} else if r.Prints[2] != "line 3" {
		t.Errorf("cap kept wrong lines: %v", r.Prints)
	}
	if r := run(-1); len(r.Prints) != 8 || r.PrintsTruncated {
		t.Errorf("unlimited: %d prints truncated=%v, want all 8", len(r.Prints), r.PrintsTruncated)
	}
}

// TestChromeSpans renders an instrumented batch as a Chrome trace and
// checks the lanes: metadata names for the batch lane and every worker,
// build phases on the batch lane, one job slice per job on a worker lane,
// the error surfaced in the failing job's args, and the closing instant.
func TestChromeSpans(t *testing.T) {
	mc, src := loadFIR(t)
	jobs := []Job{
		{Name: "ok-0", Source: src},
		{Name: "ok-1", Source: src},
		{Name: "broken"}, // no source -> per-job error
		{Name: "ok-2", Source: src},
	}
	cs := NewChromeSpans()
	if _, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2, Chrome: cs}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	laneNames := map[string]bool{}
	phases := map[string]bool{}
	jobSlices := 0
	brokenHasErr := false
	doneInstant := false
	for _, e := range doc.TraceEvents {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		cat, _ := e["cat"].(string)
		args, _ := e["args"].(map[string]any)
		switch {
		case ph == "M" && name == "thread_name":
			laneNames[args["name"].(string)] = true
		case ph == "X" && cat == "build":
			phases[name] = true
			if tid, _ := e["tid"].(float64); tid != 0 {
				t.Errorf("build phase %q on lane %v, want batch lane 0", name, e["tid"])
			}
		case ph == "X" && cat == "job":
			jobSlices++
			tid, _ := e["tid"].(float64)
			if tid < 1 || tid > 2 {
				t.Errorf("job %q on lane %v, want a worker lane 1..2", name, e["tid"])
			}
			if name == "broken" {
				_, brokenHasErr = args["error"]
			}
		case ph == "i" && name == "batch done":
			doneInstant = true
			if _, ok := args["jobs_per_sec"]; !ok {
				t.Errorf("batch done instant lacks throughput args: %v", args)
			}
		}
	}
	for _, want := range []string{"batch", "worker 0", "worker 1"} {
		if !laneNames[want] {
			t.Errorf("missing lane %q (have %v)", want, laneNames)
		}
	}
	if !phases["assemble"] || !phases["prewarm"] {
		t.Errorf("missing build phase slices: %v", phases)
	}
	if jobSlices != len(jobs) {
		t.Errorf("%d job slices, want %d", jobSlices, len(jobs))
	}
	if !brokenHasErr {
		t.Error("failing job's slice has no error arg")
	}
	if !doneInstant {
		t.Error("no 'batch done' instant")
	}
}
