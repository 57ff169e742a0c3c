package debug_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"golisa/internal/core"
	"golisa/internal/debug"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// recHarness is the recording variant of harness: the simulation runs
// under both the debug server and a replay.Recorder, so the time-travel
// endpoints are live.
type recHarness struct {
	*harness
	rec  *replay.Recorder
	path string
}

func newRecHarness(t *testing.T) *recHarness {
	t.Helper()
	return newRecHarnessFor(t, countdown)
}

// newRecHarnessFor is newRecHarness for a given simple16 program.
func newRecHarnessFor(t *testing.T, src string) *recHarness {
	t.Helper()
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.lrec")
	rec, err := replay.Create(s, m.Source, path, replay.Options{Every: 16, Keep: 64})
	if err != nil {
		t.Fatal(err)
	}
	metrics := trace.NewMetrics()
	flight := trace.NewFlight(64)
	srv := debug.NewServer(s, debug.Options{
		Metrics: metrics, Flight: flight, Recorder: rec, StartPaused: true,
	})
	s.SetObserver(trace.Fanout(metrics, flight, rec, srv.Attach()))

	h := &recHarness{
		harness: &harness{ts: httptest.NewServer(srv.Handler()), done: make(chan error, 1)},
		rec:     rec,
		path:    path,
	}
	t.Cleanup(h.ts.Close)
	go func() {
		_, err := s.Run(50_000)
		srv.Finish()
		if cerr := rec.Close(); err == nil {
			err = cerr
		}
		h.done <- err
	}()
	return h
}

// TestTimeTravel rewinds a live simulation with /rstep and /goto and
// checks that (a) the rewound state is bit-identical to the state seen
// the first time through, and (b) after rewinding and re-running, the
// on-disk recording is still contiguous and verifies end to end.
func TestTimeTravel(t *testing.T) {
	h := newRecHarness(t)
	h.waitState(t, "initial pause", func(s debug.StateSnapshot) bool { return s.Paused })

	h.get(t, "/step?n=30")
	at30 := h.waitState(t, "step 30", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 30 })

	h.get(t, "/step?n=15")
	h.waitState(t, "step 45", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 45 })

	// Backwards 15 cycles: must land on exactly the state we saw at 30.
	h.get(t, "/rstep?n=15")
	back := h.waitState(t, "rewind to 30", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 30 })
	if back.StopCause != "goto" {
		t.Errorf("stop cause after rstep = %q, want goto", back.StopCause)
	}
	if !reflect.DeepEqual(back.Registers, at30.Registers) {
		t.Errorf("registers after rewind differ:\n got %+v\nwant %+v", back.Registers, at30.Registers)
	}

	// Forward jump below the high-water mark (re-execution, suppressed in
	// the recording), then a deep rewind near the start.
	h.get(t, "/goto?cycle=40")
	h.waitState(t, "goto 40", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 40 })
	h.get(t, "/goto?cycle=8")
	h.waitState(t, "goto 8", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 8 })

	// Run to completion and make sure the rewinds did not corrupt the
	// append-only recording: it must parse complete and verify fully.
	h.get(t, "/resume")
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not finish")
	}
	recd, err := replay.Open(h.path)
	if err != nil {
		t.Fatal(err)
	}
	if !recd.Complete || recd.Truncated {
		t.Fatalf("recording after time travel: complete=%v truncated=%v", recd.Complete, recd.Truncated)
	}
	rp, err := replay.NewReplayer(recd)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rp.Verify()
	if err != nil {
		t.Fatalf("verify after time travel: %v", err)
	}
	if rep.Events == 0 || rep.Hashes == 0 {
		t.Errorf("verify checked nothing: %+v", rep)
	}
}

// TestReverseContinue runs backwards to breakpoint and watchpoint hits.
func TestReverseContinue(t *testing.T) {
	h := newRecHarness(t)
	h.waitState(t, "initial pause", func(s debug.StateSnapshot) bool { return s.Paused })

	h.get(t, "/step?n=60")
	h.waitState(t, "step 60", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 60 })

	// The loop head (address 2) is re-fetched every iteration, so there
	// are many past cycles with pc=2; /rcontinue must find the latest.
	h.get(t, "/break?pc=2")
	h.get(t, "/rcontinue")
	snap := h.waitState(t, "reverse-continue", func(s debug.StateSnapshot) bool {
		return s.Paused && s.StopCause == "reverse-continue"
	})
	if snap.Step >= 60 {
		t.Fatalf("reverse-continue did not go backwards: at %d", snap.Step)
	}
	if pc := reg(t, snap, "pc"); pc != 2 {
		t.Errorf("after reverse-continue pc=%d, want 2", pc)
	}
	first := snap.Step

	// Again: the next hit must be strictly earlier.
	h.get(t, "/rcontinue")
	snap = h.waitState(t, "second reverse-continue", func(s debug.StateSnapshot) bool {
		return s.Paused && s.Step < first
	})
	if pc := reg(t, snap, "pc"); pc != 2 {
		t.Errorf("after second reverse-continue pc=%d, want 2", pc)
	}
	h.get(t, "/break?pc=2&clear=1")

	// Watchpoint: B is written exactly once (LDI B1,1 at the start), so
	// reverse-continue lands right after that write — and a further
	// reverse-continue has nothing earlier to stop at.
	h.get(t, "/watch?resource=B")
	h.get(t, "/rcontinue")
	snap = h.waitState(t, "watch reverse-continue", func(s debug.StateSnapshot) bool {
		return s.Paused && s.StopCause == "reverse-continue"
	})
	if snap.Step >= first {
		t.Errorf("watch hit at %d, want earlier than %d", snap.Step, first)
	}
	resp, err := http.Get(h.ts.URL + "/rcontinue")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("rcontinue with no earlier hit = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	h.get(t, "/watch?resource=B&clear=1")

	h.get(t, "/resume")
	if err := <-h.done; err != nil {
		t.Fatal(err)
	}
}

// TestWatchAlias watches accu_hi, an alias of simple16's accumulator.
// Nothing writes the alias by name: the one MAC writes accu, so the
// watch must cover the resource the alias names. The run pauses at the
// step boundary after that write, and reverse-continue from a few steps
// later finds the same boundary.
func TestWatchAlias(t *testing.T) {
	h := newRecHarnessFor(t, `
        LDI A6, 3
        LDI A7, 5
        NOP
        NOP
        MAC A6, A7
        NOP
        NOP
        NOP
        NOP
        NOP
        HALT
`)
	h.waitState(t, "initial pause", func(s debug.StateSnapshot) bool { return s.Paused })
	h.get(t, "/watch?resource=accu_hi")
	h.get(t, "/resume")
	h.waitState(t, "watchpoint", func(s debug.StateSnapshot) bool {
		if s.Done {
			t.Fatalf("run finished without the watchpoint firing: %+v", s)
		}
		return s.Paused && s.StopCause == "watchpoint accu_hi"
	})
	// /state reads the registers at a boundary and the run status after
	// it, so only a snapshot taken while paused shows the paused state.
	hit := h.state(t)
	if got := reg(t, hit, "accu"); got != 15 {
		t.Errorf("paused with accu = %d, want 15 (after the MAC)", got)
	}
	if !reflect.DeepEqual(hit.Watches, []string{"accu_hi"}) {
		t.Errorf("watches = %q, want [accu_hi]", hit.Watches)
	}

	h.get(t, "/step?n=3")
	h.waitState(t, "three steps on", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == hit.Step+3 })
	h.get(t, "/rcontinue")
	back := h.waitState(t, "reverse-continue", func(s debug.StateSnapshot) bool {
		return s.Paused && s.StopCause == "reverse-continue"
	})
	if back.Step != hit.Step {
		t.Errorf("reverse-continue stopped at %d, want the watchpoint's step %d", back.Step, hit.Step)
	}

	h.get(t, "/watch?resource=accu_hi&clear=1")
	h.get(t, "/resume")
	if err := <-h.done; err != nil {
		t.Fatal(err)
	}
}

// TestTimeTravelErrors covers the failure paths, including a server
// without a recorder where backwards travel must be refused.
func TestTimeTravelErrors(t *testing.T) {
	h := newHarness(t) // no recorder
	defer func() {
		h.get(t, "/resume")
		<-h.done
	}()
	h.waitState(t, "initial pause", func(s debug.StateSnapshot) bool { return s.Paused })
	h.get(t, "/step?n=5")
	h.waitState(t, "step 5", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 5 })
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/goto?cycle=2", http.StatusConflict},    // backwards without recorder
		{"/rstep?n=2", http.StatusConflict},       // same
		{"/rcontinue", http.StatusConflict},       // same
		{"/rstep?n=99", http.StatusBadRequest},    // beyond cycle 0
		{"/rstep?n=0", http.StatusBadRequest},     // zero step
		{"/goto", http.StatusBadRequest},          // missing cycle
		{"/goto?cycle=zz", http.StatusBadRequest}, // unparsable
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
	// Forward goto works without a recorder.
	h.get(t, "/goto?cycle=9")
	h.waitState(t, "goto 9", func(s debug.StateSnapshot) bool { return s.Paused && s.Step == 9 })
}

// TestProtect checks the panic guard: the flight ring is dumped and the
// partial recording flushed (and still replayable) before the panic
// propagates.
func TestProtect(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	var lrec bytes.Buffer
	rec := replay.NewRecorder(s, m.Source, &lrec, replay.Options{Every: 8})
	flight := trace.NewFlight(32)
	s.SetObserver(trace.Fanout(flight, rec))

	var out bytes.Buffer
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		_ = debug.Protect(&out, flight, rec, func() error {
			for i := 0; i < 20; i++ {
				if err := s.RunStep(); err != nil {
					return err
				}
			}
			panic("boom")
		})
	}()
	if !panicked {
		t.Fatal("Protect swallowed the panic")
	}
	dump := out.String()
	if !bytes.Contains(out.Bytes(), []byte("simulation panic: boom")) {
		t.Errorf("missing panic banner in dump:\n%s", dump)
	}
	if !bytes.Contains(out.Bytes(), []byte("flight recorder")) {
		t.Errorf("missing flight dump:\n%s", dump)
	}
	recd, err := replay.Parse(lrec.Bytes())
	if err != nil {
		t.Fatalf("flushed partial recording does not parse: %v", err)
	}
	if recd.Complete {
		t.Error("partial recording claims to be complete")
	}
	if recd.FinalStep < 10 {
		t.Errorf("partial recording covers %d cycles, want >= 10", recd.FinalStep)
	}
	rp, err := replay.NewReplayer(recd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Goto(recd.FinalStep / 2); err != nil {
		t.Fatalf("replaying flushed partial recording: %v", err)
	}

	// Without a panic, Protect just passes the body's result through.
	if err := debug.Protect(&out, nil, nil, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}
