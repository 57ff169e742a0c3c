package debug

import (
	"fmt"
	"net/http"

	"golisa/internal/replay"
)

// Time-travel run control. With a replay.Recorder attached (Options
// .Recorder), the server can move the live simulation BACKWARDS: restore
// the nearest in-memory checkpoint at or before the target cycle,
// re-apply the recorded external inputs and deterministically re-execute
// up to the target. The recorder's high-water suppression keeps the
// on-disk .lrec append-only and valid across rewinds: re-executed steps
// below the high-water mark are not re-emitted.
//
// Everything here runs inside Controller.Do, i.e. on the simulation
// goroutine at a control-step boundary (or inline once the run is done),
// so the simulator is never touched concurrently. The simulator's Gate is
// removed for the duration of the travel — the gate's mutex is held by
// the very closure we run in, so re-entering it would deadlock — and the
// travel therefore does not stop at breakpoints on the way.

// travelTo moves the simulation to exactly the target cycle. The caller
// must run it through ctrl.Do.
func (srv *Server) travelTo(target uint64) error {
	s := srv.sim
	c := srv.ctrl
	gate := s.Gate
	s.Gate = nil
	defer func() {
		s.Gate = gate
		c.step = s.Step()
		c.paused = true
		c.budget = 0
		c.watchHit = "" // travel does not stop at watchpoints
	}()
	if target < s.Step() {
		rec := srv.opts.Recorder
		if rec == nil {
			return fmt.Errorf("cannot travel backwards: no recorder attached (run with -record)")
		}
		ck, ok := rec.Nearest(target)
		if !ok {
			return fmt.Errorf("no checkpoint at or before cycle %d", target)
		}
		// Detach observers for the catch-up: the events were all emitted
		// (and recorded) the first time around.
		prev := s.SwapObserver(nil)
		err := s.Restore(ck.Snap)
		if err == nil {
			err = srv.runTo(ck.Step, target)
		}
		s.SwapObserver(prev)
		return err
	}
	// Forward travel keeps observers attached: below the recorder's
	// high-water mark the recorder suppresses re-emission, beyond it the
	// run is new and extends the recording.
	return srv.runTo(s.Step(), target)
}

// runTo re-executes from the current boundary (reached via start) up to
// target, re-applying recorded external inputs at the boundaries they
// originally preceded. Inputs tagged start are already part of the
// current state (a checkpoint captures them; a live boundary saw them
// applied).
func (srv *Server) runTo(start, target uint64) error {
	s := srv.sim
	for {
		t := s.Step()
		if t > start {
			srv.applyInputs(t)
		}
		if t >= target {
			return nil
		}
		if s.Halted() {
			return fmt.Errorf("simulation halted at cycle %d, before target %d", t, target)
		}
		if err := s.RunStep(); err != nil {
			return err
		}
	}
}

// applyInputs re-injects the recorded external inputs tagged with the
// given boundary.
func (srv *Server) applyInputs(step uint64) {
	rec := srv.opts.Recorder
	if rec == nil {
		return
	}
	for _, in := range rec.InputRange(step, step+1) {
		if in.IsMem {
			_ = srv.sim.SetMem(in.Resource, in.Addr, in.Value)
		} else {
			_ = srv.sim.SetScalar(in.Resource, in.Value)
		}
	}
}

// reverseContinue finds the latest cycle strictly before the current one
// at which a breakpoint or watchpoint would have stopped the simulation,
// and travels there. It scans checkpoint windows newest-first, so the
// cost is bounded by the checkpoint cadence times the number of windows
// without a hit. Must run through ctrl.Do.
func (srv *Server) reverseContinue() (uint64, error) {
	s := srv.sim
	c := srv.ctrl
	rec := srv.opts.Recorder
	cur := s.Step()
	if len(c.breakpoints) == 0 && len(c.watches) == 0 {
		return 0, fmt.Errorf("no breakpoints or watchpoints set")
	}
	gate := s.Gate
	s.Gate = nil
	prev := s.SwapObserver(nil)
	restore := func() {
		s.SwapObserver(prev)
		s.Gate = gate
		c.step = s.Step()
		c.paused = true
		c.budget = 0
		c.watchHit = ""
	}
	cks := rec.Checkpoints()
	end := cur
	for i := len(cks) - 1; i >= 0; i-- {
		ck := cks[i]
		if ck.Step >= cur {
			continue
		}
		hit, found, err := srv.scanWindow(ck, end, cur)
		if err != nil {
			restore()
			return 0, err
		}
		if found {
			var terr error
			if hit < s.Step() {
				terr = func() error {
					if err := s.Restore(mustNearest(rec, hit).Snap); err != nil {
						return err
					}
					return srv.runTo(mustNearest(rec, hit).Step, hit)
				}()
			} else {
				terr = srv.runTo(s.Step(), hit)
			}
			restore()
			if terr != nil {
				return 0, terr
			}
			c.stopCause = "reverse-continue"
			return hit, nil
		}
		end = ck.Step
	}
	// No hit anywhere: put the simulation back where it was.
	var terr error
	if cur < s.Step() {
		if ck, ok := rec.Nearest(cur); ok {
			if terr = s.Restore(ck.Snap); terr == nil {
				terr = srv.runTo(ck.Step, cur)
			}
		}
	} else {
		terr = srv.runTo(s.Step(), cur)
	}
	restore()
	if terr != nil {
		return 0, terr
	}
	return 0, fmt.Errorf("no earlier breakpoint or watchpoint hit in the recorded run")
}

func mustNearest(rec *replay.Recorder, step uint64) replay.Checkpoint {
	ck, _ := rec.Nearest(step)
	return ck
}

// scanWindow re-executes [ck.Step, end) looking for the LAST boundary
// t < cur where a breakpoint (pc match at boundary t) or watchpoint (a
// watched write during step t-1, or an external input write at t) fires.
func (srv *Server) scanWindow(ck replay.Checkpoint, end, cur uint64) (uint64, bool, error) {
	s := srv.sim
	c := srv.ctrl
	if err := s.Restore(ck.Snap); err != nil {
		return 0, false, err
	}
	// Only the watchpoints observe the re-execution; a hit sets watchHit.
	s.SwapObserver(c.Observer())
	defer s.SwapObserver(nil)
	var last uint64
	found := false
	for {
		t := s.Step()
		if t > ck.Step {
			c.watchHit = ""
			srv.applyInputs(t)
			if c.watchHit != "" && t < cur {
				last, found = t, true
			}
		}
		if t < cur && t < end && len(c.breakpoints) > 0 && c.pc != nil {
			if _, hit := c.breakpoints[c.pc()]; hit {
				last, found = t, true
			}
		}
		if t >= end || s.Halted() {
			return last, found, nil
		}
		c.watchHit = ""
		if err := s.RunStep(); err != nil {
			return 0, false, err
		}
		if c.watchHit != "" && s.Step() < cur {
			last, found = s.Step(), true
		}
	}
}

// --- HTTP endpoints --------------------------------------------------------------

func (srv *Server) travel(w http.ResponseWriter, target uint64) {
	var terr error
	srv.ctrl.Do(func() {
		if target < srv.sim.Step() && srv.opts.Recorder == nil {
			terr = fmt.Errorf("time travel needs a recorder: run with -record")
			return
		}
		srv.ctrl.stopCause = "goto"
		terr = srv.travelTo(target)
	})
	if terr != nil {
		http.Error(w, terr.Error(), http.StatusConflict)
		return
	}
	srv.ack(w)
}

// handleRStep steps the simulation BACKWARDS by n cycles.
func (srv *Server) handleRStep(w http.ResponseWriter, r *http.Request) {
	n, err := parseUint(r.URL.Query().Get("n"), 1)
	if err != nil || n == 0 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return
	}
	var cur uint64
	srv.ctrl.Do(func() { cur = srv.sim.Step() })
	if n > cur {
		http.Error(w, fmt.Sprintf("cannot step back %d cycles from cycle %d", n, cur), http.StatusBadRequest)
		return
	}
	srv.travel(w, cur-n)
}

// handleGoto jumps (forwards or backwards) to an exact cycle.
func (srv *Server) handleGoto(w http.ResponseWriter, r *http.Request) {
	cycleStr := r.URL.Query().Get("cycle")
	if cycleStr == "" {
		http.Error(w, "missing cycle", http.StatusBadRequest)
		return
	}
	cycle, err := parseUint(cycleStr, 0)
	if err != nil {
		http.Error(w, "bad cycle (decimal or 0x hex)", http.StatusBadRequest)
		return
	}
	srv.travel(w, cycle)
}

// handleRContinue runs BACKWARDS to the most recent breakpoint or
// watchpoint hit before the current cycle.
func (srv *Server) handleRContinue(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Recorder == nil {
		http.Error(w, "time travel needs a recorder: run with -record", http.StatusConflict)
		return
	}
	var hit uint64
	var rerr error
	srv.ctrl.Do(func() { hit, rerr = srv.reverseContinue() })
	if rerr != nil {
		http.Error(w, rerr.Error(), http.StatusConflict)
		return
	}
	_ = hit
	srv.ack(w)
}
