package debug_test

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"golisa/internal/core"
	"golisa/internal/debug"
	"golisa/internal/fleet"
	"golisa/internal/profile"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

const countdown = `
start:  LDI B1, 1
        LDI A1, 200
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
`

// longCountdown is countdown with a 50x longer loop (40005 steps), so a
// pause sent right after the start pause is released lands mid-run.
var longCountdown = strings.Replace(countdown, "LDI A1, 200", "LDI A1, 10000", 1)

// harness runs a paused simple16 simulation under a live introspection
// server, exercising it the way lisa-sim -http does.
type harness struct {
	ts   *httptest.Server
	done chan error
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessFor(t, countdown)
}

// newHarnessFor is newHarness for a given program.
func newHarnessFor(t *testing.T, src string) *harness {
	t.Helper()
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, prog, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := m.NewDisassembler()
	if err != nil {
		t.Fatal(err)
	}
	metrics := trace.NewMetrics()
	flight := trace.NewFlight(64)
	prof := profile.New(profile.Options{
		Source: "countdown.s", Model: m.Model.Name,
		Origin: prog.Origin, Words: prog.Words, Dis: dis,
	})
	srv := debug.NewServer(s, debug.Options{
		Metrics: metrics, Flight: flight, Profiler: prof, StartPaused: true,
	})
	s.SetObserver(trace.Fanout(metrics, flight, prof, srv.Attach()))

	h := &harness{ts: httptest.NewServer(srv.Handler()), done: make(chan error, 1)}
	t.Cleanup(h.ts.Close)
	go func() {
		_, err := s.Run(50_000)
		srv.Finish()
		h.done <- err
	}()
	return h
}

func (h *harness) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

func (h *harness) state(t *testing.T) debug.StateSnapshot {
	t.Helper()
	var snap debug.StateSnapshot
	if err := json.Unmarshal(h.get(t, "/state"), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// waitState polls /state until cond holds (the simulation runs in its own
// goroutine, so pause points are reached asynchronously).
func (h *harness) waitState(t *testing.T, what string, cond func(debug.StateSnapshot) bool) debug.StateSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := h.state(t)
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last state: %+v", what, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func reg(t *testing.T, snap debug.StateSnapshot, name string) uint64 {
	t.Helper()
	for _, r := range snap.Registers {
		if r.Name == name {
			return r.Value
		}
	}
	t.Fatalf("no register %q in snapshot", name)
	return 0
}

// TestLiveIntrospection drives a full debug session over HTTP: start
// paused, single-step, break on a PC, watch a register write, inspect
// metrics/flight/profile/memory live, and run to completion.
func TestLiveIntrospection(t *testing.T) {
	h := newHarness(t)

	// Starts paused at step 0, before any instruction ran.
	snap := h.waitState(t, "initial pause", func(s debug.StateSnapshot) bool { return s.Paused })
	if snap.Step != 0 || snap.StopCause != "start" {
		t.Fatalf("expected pause at step 0 cause=start, got %+v", snap)
	}
	if snap.Model != "simple16" || len(snap.Pipes) != 1 || len(snap.Pipes[0].Stages) != 4 {
		t.Fatalf("bad topology in snapshot: %+v", snap)
	}

	// Single-step five control steps.
	h.get(t, "/step?n=5")
	snap = h.waitState(t, "5 steps", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 5 })
	if cause := snap.StopCause; cause != "step" {
		t.Errorf("stop cause = %q, want step", cause)
	}

	// Break when the fetch address reaches the SUB at address 2 (the loop
	// head re-fetches it every iteration, so resuming hits it again).
	h.get(t, "/break?pc=2")
	h.get(t, "/resume")
	snap = h.waitState(t, "breakpoint", func(s debug.StateSnapshot) bool {
		return s.Paused && s.StopCause == "breakpoint"
	})
	if pc := reg(t, snap, "pc"); pc != 2 {
		t.Errorf("paused with pc=%d, want 2", pc)
	}
	if len(snap.Breakpoints) != 1 || snap.Breakpoints[0] != 2 {
		t.Errorf("breakpoints = %v, want [2]", snap.Breakpoints)
	}
	h.get(t, "/break?pc=2&clear=1")

	// Watch writes to the loop counter register file entry's backing
	// resource: every SUB writes A, so the watch trips within a step.
	h.get(t, "/watch?resource=A")
	h.get(t, "/resume")
	snap = h.waitState(t, "watchpoint", func(s debug.StateSnapshot) bool {
		return s.Paused && strings.HasPrefix(s.StopCause, "watchpoint")
	})
	if snap.StopCause != "watchpoint A" {
		t.Errorf("stop cause = %q, want 'watchpoint A'", snap.StopCause)
	}
	h.get(t, "/watch?resource=A&clear=1")

	// Live metrics in Prometheus exposition format.
	metrics := string(h.get(t, "/metrics"))
	if !strings.Contains(metrics, "lisa_steps_total") || !strings.Contains(metrics, `op="sub"`) {
		t.Errorf("metrics missing expected series:\n%s", metrics)
	}

	// Flight-recorder dump.
	flight := string(h.get(t, "/flight"))
	if !strings.Contains(flight, "flight recorder") || !strings.Contains(flight, "exec") {
		t.Errorf("flight dump unexpected:\n%s", flight)
	}

	// Live pprof profile: valid gzip with nonzero payload.
	pb := h.get(t, "/profile")
	zr, err := gzip.NewReader(strings.NewReader(string(pb)))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("empty or broken profile: %v", err)
	}

	// Memory window endpoint.
	var win struct {
		Name   string   `json:"name"`
		Values []uint64 `json:"values"`
	}
	if err := json.Unmarshal(h.get(t, "/mem?name=prog_mem&addr=0&n=4"), &win); err != nil {
		t.Fatal(err)
	}
	if len(win.Values) != 4 || win.Values[0] == 0 {
		t.Errorf("prog_mem window = %v, want 4 nonzero-leading words", win.Values)
	}

	// Run to completion; after Finish the server answers from final state.
	h.get(t, "/resume")
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not finish")
	}
	snap = h.state(t)
	if !snap.Done || !snap.Halted {
		t.Fatalf("expected done+halted final state, got %+v", snap)
	}
	if a0 := reg(t, snap, "halt"); a0 != 1 {
		t.Errorf("halt = %d, want 1", a0)
	}
}

// TestPauseRunning pauses a free-running simulation mid-flight.
func TestPauseRunning(t *testing.T) {
	h := newHarnessFor(t, longCountdown)
	h.get(t, "/resume") // release the start pause; the sim free-runs
	h.get(t, "/pause")
	snap := h.waitState(t, "pause", func(s debug.StateSnapshot) bool { return s.Paused || s.Done })
	if snap.Done {
		t.Skip("simulation finished before the pause landed")
	}
	if snap.StopCause != "pause" {
		t.Errorf("stop cause = %q, want pause", snap.StopCause)
	}
	h.get(t, "/resume")
	if err := <-h.done; err != nil {
		t.Fatal(err)
	}
}

// TestEndpointErrors covers the failure paths.
func TestEndpointErrors(t *testing.T) {
	h := newHarness(t)
	defer func() {
		h.get(t, "/resume")
		<-h.done
	}()
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/mem?name=nosuch", http.StatusBadRequest},
		{"/watch?resource=nosuch", http.StatusBadRequest},
		{"/break?pc=zz", http.StatusBadRequest},
		{"/step?n=0", http.StatusBadRequest},
		{"/nosuch", http.StatusNotFound},
	} {
		resp, err := http.Get(h.ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}
}

// TestBatchEndpoint posts a job manifest to /batch and checks the fleet
// summary comes back, plus the endpoint's error paths (wrong method, file
// paths over HTTP, endpoint disabled).
func TestBatchEndpoint(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	srv := debug.NewServer(s, debug.Options{
		Batch: &fleet.Service{Machine: m, Mode: sim.Compiled},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	man, err := json.Marshal(fleet.Manifest{
		Workers: 2,
		Jobs: []fleet.Job{
			{Name: "cd-1", Source: countdown},
			{Name: "cd-2", Source: countdown},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(string(man)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %s: %s", resp.Status, body)
	}
	var sum fleet.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 || len(sum.Results) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	for i, r := range sum.Results {
		if !r.Halted || r.Steps == 0 {
			t.Errorf("job %d: %+v", i, r)
		}
	}

	// GET is not allowed; file paths are rejected; and without a service
	// the endpoint is 404.
	if resp, err := http.Get(ts.URL + "/batch"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch = %d, want 405", resp.StatusCode)
	}
	bad := `{"jobs":[{"name":"x","program":"/etc/passwd"}]}`
	if resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(bad)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /batch with file path = %d, want 400", resp.StatusCode)
	}
	off := debug.NewServer(s, debug.Options{})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if resp, err := http.Post(tsOff.URL+"/batch", "application/json", strings.NewReader(string(man))); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /batch without service = %d, want 404", resp.StatusCode)
	}
}
