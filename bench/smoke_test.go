package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// spec is the part of ../BENCHMARK.json the smoke test holds the
// benchmark to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func testConfig(t *testing.T) *config {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return &config{seed: 1, maxSteps: maxSteps, golden: g}
}

// checkMetrics asserts res holds exactly the listed metrics, each with its
// unit and a positive value unless zero is allowed.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }, zeroOK map[string]bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v, %d of %d jobs failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case got.Value <= 0 && !zeroOK[m.Name]:
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json for about a second, then
// one short traced run, and checks that exactly the listed metrics come
// out, each with its unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	cfg := testConfig(t)
	for _, sw := range s.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		one := *w
		one.setups = 1
		res, _, err := measure(&one, cfg, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, s.EndToEnd, nil)
	}
	res, lines, err := tracedRun(workloads[0], cfg, time.Second, filepath.Join(t.TempDir(), "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The overhead of tracing is a difference of two noisy rates and may
	// come out at or below zero on a one-second run.
	checkMetrics(t, res, s.PerLayer, map[string]bool{"bench.trace_overhead_pct": true})
	if testing.Verbose() {
		t.Log("\n" + strings.Join(lines, "\n"))
	}
}

// TestVerificationIsLive corrupts one golden entry and breaks one
// program's source, so one job fails after running and another fails fast
// in the assembler. Both must count as failed, their host time must count
// in jobs_per_s while the jobs do not, and neither may enter the latency
// quantiles. A step cap below a program's length must fail the job on the
// in-process and native engines.
func TestVerificationIsLive(t *testing.T) {
	cfg := testConfig(t)
	pool := kernelsPool()
	bad, fast := pool[0].Name, pool[1].Name
	ref := cfg.golden[bad]
	ref.State = "0000000000000000"
	corrupt := map[string]golden{}
	for k, v := range cfg.golden {
		corrupt[k] = v
	}
	corrupt[bad] = ref
	cc := *cfg
	cc.golden = corrupt
	r, err := newSimRunner(&cc, pool, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After set-up, so only the job sees it.
	pool[1].Source = "NOT_AN_INSTRUCTION A0\n"
	hs := newHostSpeed()
	tl, err := loop(r, pool, newSequence(pool, 1), 0, hs, nil, nil, nil) // one round
	hs.close()
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, e := range tl.errs {
		name, _, _ := strings.Cut(e, ":")
		failed = append(failed, name)
	}
	slices.Sort(failed)
	if want := []string{bad, fast}; tl.failed != 2 || !slices.Equal(failed, want) {
		t.Fatalf("failed %d jobs (%v), want exactly %v", tl.failed, tl.errs, want)
	}
	if tl.attempted != len(pool) || len(tl.jobs) != len(pool) {
		t.Errorf("%d jobs attempted, %d recorded; want %d", tl.attempted, len(tl.jobs), len(pool))
	}
	for _, j := range tl.jobs {
		if j.host <= 0 || j.reading <= 0 {
			t.Errorf("job timed %v with mean probe reading %v", j.host, j.reading)
		}
	}
	if tl.result().Correct {
		t.Error("a run with a failed job reads correct")
	}

	// On made-up jobs: a job whose probe readings were twice full speed
	// counts half its host time; a failed job's host time counts in the
	// throughputs while the job does not, and it stays out of the
	// quantiles.
	ms := time.Millisecond
	made := &tally{attempted: 3, failed: 1, rss: []float64{14}, jobs: []jobRec{
		{interval{20 * ms, 2 * fullSpeed}, true, 1000},
		{interval{10 * ms, fullSpeed}, true, 3000},
		{interval{5 * ms, fullSpeed}, false, 0},
	}}
	vals := e2eValues([]interval{{4 * time.Second, 2 * fullSpeed}}, made)
	want := map[string]float64{"setup_s": 2, "jobs_per_s": 2 / 0.025, "sim_mcycles_per_s": 4000 / 0.025 / 1e6,
		"job_p50_ms": 10, "job_p90_ms": 10, "rss_mb": 14}
	for name, v := range want {
		if math.Abs(vals[name]-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, vals[name], v)
		}
	}

	capped := *cfg
	capped.maxSteps = 100
	for _, name := range []string{"kernels", "generated"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		pool := w.pool()
		r, err := w.setup(&capped, pool, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.job(0, nil, nil); err == nil || !strings.Contains(err.Error(), "did not halt") {
			t.Errorf("%s: job %s under a 100-step cap: %v, want a halt failure", name, pool[0].Name, err)
		}
		r.close()
	}
}
