package replay

import (
	"fmt"
	"io"

	"golisa/internal/bitvec"
	"golisa/internal/core"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Replayer reconstructs the recorded simulation at any cycle: it loads
// the model embedded in the recording, restores the nearest checkpoint at
// or before the target, re-injects the recorded external inputs and
// re-executes forward. While re-executing, every emitted event is
// cross-checked against the recorded stream and every checkpoint's state
// hash against the live state, so a successful replay is a proof that the
// reconstruction is exact, not an assumption.
type Replayer struct {
	Rec *Recording
	Sim *sim.Simulator

	v     *verifier
	extra trace.Observer
}

// NewReplayer builds a simulator from the recording's embedded model and
// positions it at the first checkpoint.
func NewReplayer(rec *Recording) (*Replayer, error) {
	if len(rec.Checkpoints) == 0 {
		return nil, fmt.Errorf("recording has no checkpoint (empty or cut off before the first step)")
	}
	mach, err := core.LoadMachine(rec.ModelName, rec.Source)
	if err != nil {
		return nil, fmt.Errorf("embedded model: %w", err)
	}
	if err := checkTables(rec, mach); err != nil {
		return nil, err
	}
	rec.memsOnce.Do(func() { rec.mems = memSizesOf(mach.Model) })
	s, err := mach.NewSimulator(rec.Mode)
	if err != nil {
		return nil, err
	}
	r := &Replayer{Rec: rec, Sim: s}
	if err := r.seek(rec.Checkpoints[0]); err != nil {
		return nil, err
	}
	return r, nil
}

// checkTables verifies the header name tables line up with the model
// rebuilt from the embedded source — a cheap guard against recordings
// whose header was edited or mixed up.
func checkTables(rec *Recording, mach *core.Machine) error {
	if len(rec.Ops) != len(mach.Model.OpList) {
		return fmt.Errorf("recording lists %d operations, embedded model has %d", len(rec.Ops), len(mach.Model.OpList))
	}
	for i, op := range mach.Model.OpList {
		if rec.Ops[i] != op.Name {
			return fmt.Errorf("recording operation table mismatch at %d: %q vs %q", i, rec.Ops[i], op.Name)
		}
	}
	if len(rec.Resources) != len(mach.Model.Resources) {
		return fmt.Errorf("recording lists %d resources, embedded model has %d", len(rec.Resources), len(mach.Model.Resources))
	}
	for i, res := range mach.Model.Resources {
		if rec.Resources[i] != res.Name {
			return fmt.Errorf("recording resource table mismatch at %d: %q vs %q", i, rec.Resources[i], res.Name)
		}
	}
	return nil
}

// Step returns the simulator's current control step.
func (r *Replayer) Step() uint64 { return r.Sim.Step() }

// EventsChecked returns how many recorded events were cross-checked.
func (r *Replayer) EventsChecked() uint64 { return r.v.events }

// HashesChecked returns how many checkpoint hashes were verified against
// live state.
func (r *Replayer) HashesChecked() uint64 { return r.v.hashes }

// seek restores the simulator to a checkpoint and aligns the verifying
// cursor right after its record.
func (r *Replayer) seek(ref CkptRef) error {
	snap, err := r.Rec.DecodeCheckpoint(ref)
	if err != nil {
		return err
	}
	if err := r.Sim.Restore(snap); err != nil {
		return err
	}
	cur := r.Rec.CursorAt(ref)
	if _, err := cur.Next(); err != nil { // consume the checkpoint record
		return err
	}
	events, hashes := uint64(0), uint64(0)
	if r.v != nil {
		events, hashes = r.v.events, r.v.hashes
	}
	r.v = &verifier{r: r, cur: cur, live: trace.NewFlight(1), events: events, hashes: hashes}
	if r.extra != nil {
		r.Sim.SetObserver(trace.Fanout(r.v, r.extra))
	} else {
		r.Sim.SetObserver(r.v)
	}
	return nil
}

// SetExtra attaches an additional observer that sees every event of the
// re-executed simulation alongside the verifier — e.g. an analyze.Analyzer
// attributing hazards from a recording. The observer's OnAttach fires on
// every seek (each Goto/Verify restart replays from a checkpoint), so it
// must reset its state there. Call before Goto/Verify.
func (r *Replayer) SetExtra(o trace.Observer) {
	r.extra = o
	if r.v != nil {
		if o != nil {
			r.Sim.SetObserver(trace.Fanout(r.v, o))
		} else {
			r.Sim.SetObserver(r.v)
		}
	}
}

// stepOnce re-executes one control step under verification.
func (r *Replayer) stepOnce() error {
	if err := r.Sim.RunStep(); err != nil {
		return err
	}
	return r.v.err
}

// Goto reconstructs the simulation at exactly the given cycle. It reuses
// the current position when the target is ahead and no later checkpoint
// shortcuts the distance; otherwise it restores the nearest checkpoint at
// or before the target.
func (r *Replayer) Goto(cycle uint64) error {
	if cycle > r.Rec.FinalStep {
		return fmt.Errorf("cycle %d is beyond the recording (ends at cycle %d)", cycle, r.Rec.FinalStep)
	}
	ck, ok := r.Rec.NearestCheckpoint(cycle)
	if !ok {
		return fmt.Errorf("no checkpoint at or before cycle %d", cycle)
	}
	if cycle < r.Sim.Step() || ck.Step > r.Sim.Step() {
		if err := r.seek(ck); err != nil {
			return err
		}
	}
	for r.Sim.Step() < cycle {
		if r.Sim.Halted() {
			return fmt.Errorf("simulation halted at cycle %d, before target %d", r.Sim.Step(), cycle)
		}
		if err := r.stepOnce(); err != nil {
			return err
		}
	}
	return nil
}

// VerifyReport summarizes a full-recording verification pass.
type VerifyReport struct {
	Steps  uint64 // control steps re-executed
	Events uint64 // recorded events cross-checked
	Hashes uint64 // checkpoint state hashes verified
	Final  uint64 // cycle reached
	Halted bool
}

// Verify replays the whole recording from its first checkpoint,
// cross-checking every event and every checkpoint hash. A nil error
// means the recording and the re-execution agree exactly.
func (r *Replayer) Verify() (VerifyReport, error) {
	if err := r.seek(r.Rec.Checkpoints[0]); err != nil {
		return VerifyReport{}, err
	}
	r.v.events, r.v.hashes = 0, 0
	start := r.Sim.Step()
	for r.Sim.Step() < r.Rec.FinalStep && !r.Sim.Halted() {
		if err := r.stepOnce(); err != nil {
			return VerifyReport{}, err
		}
	}
	rep := VerifyReport{
		Steps:  r.Sim.Step() - start,
		Events: r.v.events,
		Hashes: r.v.hashes,
		Final:  r.Sim.Step(),
		Halted: r.Sim.Halted(),
	}
	if r.Rec.Complete && r.Rec.Halted != rep.Halted {
		return rep, fmt.Errorf("recording ended halted=%v but replay ended halted=%v", r.Rec.Halted, rep.Halted)
	}
	return rep, nil
}

// applyInput re-injects one recorded external input without emitting
// events (the write was already recorded as an input, not as a
// simulation event).
func (r *Replayer) applyInput(in Input) error {
	res := r.Sim.M.Resource(in.Resource)
	if res == nil {
		return fmt.Errorf("recorded input for unknown resource %q", in.Resource)
	}
	if in.IsMem {
		owe := r.Sim.S.OnWriteElem
		r.Sim.S.OnWriteElem = nil
		err := r.Sim.S.WriteElem(res, in.Addr, bitvec.New(in.Value, res.Width))
		r.Sim.S.OnWriteElem = owe
		return err
	}
	// WriteNow bypasses the observer hooks by design.
	r.Sim.S.WriteNow(res, bitvec.New(in.Value, res.Width))
	return nil
}

// --- verifying observer ----------------------------------------------------------

// verifier is the trace.Observer driving verification: each simulator
// callback pulls the next recorded event and compares. Packet ids are
// ignored (they come from a process-global counter) and so is the decode
// cache-hit flag (a mid-run restore starts with a cold cache); everything
// else must match exactly.
type verifier struct {
	r    *Replayer
	cur  *Cursor
	live *trace.Flight // builds each replayed event
	step uint64
	err  error
	done bool

	events uint64
	hashes uint64
}

func (v *verifier) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// pull returns the next comparable record, transparently applying input
// records and verifying checkpoint hashes on the way. ok=false means the
// stream ended.
func (v *verifier) pull() (Record, bool) {
	for {
		rc, err := v.cur.Next()
		if err == io.EOF {
			v.done = true
			return Record{}, false
		}
		if err != nil {
			v.done = true
			if !v.r.Rec.Truncated {
				v.fail("recording cut off mid-record at offset %d", v.cur.Offset())
			}
			return Record{}, false
		}
		switch rc.Kind {
		case recInput:
			if err := v.r.applyInput(rc.Input); err != nil {
				v.fail("replay input at step %d: %v", rc.Input.Step, err)
				v.done = true
				return Record{}, false
			}
		case recCheckpoint:
			if got := v.r.Sim.StateHash(); got != rc.CkptHash {
				v.fail("state hash mismatch at cycle %d: replayed %#x, recorded %#x", rc.Step, got, rc.CkptHash)
				v.done = true
				return Record{}, false
			}
			v.hashes++
		case recNote:
			// Out-of-band notes are not simulation events.
		case recEnd:
			v.done = true
			return Record{}, false
		default:
			return rc, true
		}
	}
}

// normEvent zeroes the fields that legitimately differ between the
// original run and a replay.
func normEvent(e trace.Event) trace.Event {
	switch e.Kind {
	case trace.KindExec, trace.KindRetire:
		e.Aux = 0 // packet ids: process-global counter
	case trace.KindStall, trace.KindFlush:
		e.Aux = 0 // ditto: the packet carrying the requester
	case trace.KindDecode:
		e.Flag = false // cache-hit flag: cold cache after restore
	}
	return e
}

// expect matches the replayed event live just built against the next
// recorded one.
func (v *verifier) expect() {
	if v.err != nil || v.done {
		return
	}
	rc, ok := v.pull()
	if !ok {
		return
	}
	rec := v.r.Rec
	ev := v.live.Last()
	if !rc.IsEvent {
		v.fail("step %d: replay emitted %s but recording has %s", v.step, ev.Format(rec.topo, ""), rec.Render(rc))
		return
	}
	ev.Step = v.step
	if normEvent(ev) != normEvent(rc.Event) {
		v.fail("replay diverged at step %d: replayed %q, recorded %q", v.step, ev.Format(rec.topo, ""), rec.Render(rc))
		return
	}
	v.events++
}

// OnAttach implements trace.Observer.
func (v *verifier) OnAttach(*trace.Topology) {}

// OnStepBegin implements trace.Observer. It is the control-step boundary
// hook, so the pull loop's input application and checkpoint hash checks
// run here, in exactly the recorded order, before the step-begin event
// itself is matched.
func (v *verifier) OnStepBegin(step uint64) {
	v.step = step
	v.live.OnStepBegin(step)
	v.expect()
}

// OnStepEnd implements trace.Observer.
func (v *verifier) OnStepEnd(step uint64) {
	v.live.OnStepEnd(step)
	v.expect()
}

// OnOccupancy implements trace.Observer; the sample is compared as a
// bitmask against the recorded one.
func (v *verifier) OnOccupancy(pipe int, occupied []bool) {
	if v.err != nil || v.done {
		return
	}
	rc, ok := v.pull()
	if !ok {
		return
	}
	if rc.Kind != recOccupancy || rc.OccPipe != pipe || rc.OccStages != len(occupied) {
		v.fail("step %d: occupancy sample of pipe %d does not line up with recording (%s)", v.step, pipe, v.r.Rec.Render(rc))
		return
	}
	for i, want := range rc.OccMask {
		if got := occWord(occupied, i); got != want {
			v.fail("replay diverged at step %d: pipe %d occupancy word %d %#x, recorded %#x", v.step, pipe, i, got, want)
			return
		}
	}
	v.events++
}

// OnDecode implements trace.Observer.
func (v *verifier) OnDecode(root int, word uint64, hit bool) {
	v.live.OnDecode(root, word, hit)
	v.expect()
}

// OnActivate implements trace.Observer; recordings carry the target only.
func (v *verifier) OnActivate(source, target int, delay uint64) {
	v.live.OnActivate(source, target, delay)
	v.expect()
}

// OnExec implements trace.Observer.
func (v *verifier) OnExec(op, pipe, stage int, packet uint64) {
	v.live.OnExec(op, pipe, stage, packet)
	v.expect()
}

// OnBehavior implements trace.Observer.
func (v *verifier) OnBehavior(op int, statements uint64) {
	v.live.OnBehavior(op, statements)
	v.expect()
}

// OnStall implements trace.Observer: the replayed attribution (cause,
// source op, gating resource) must match the recorded one exactly —
// classification reads only committed simulator state, so a divergence
// here is a real determinism bug. Version-1 recordings carry no
// attribution; the live one is masked so they still verify.
func (v *verifier) OnStall(info trace.StallInfo) {
	v.live.OnStall(v.mask(info))
	v.expect()
}

// OnFlush implements trace.Observer.
func (v *verifier) OnFlush(info trace.StallInfo) {
	v.live.OnFlush(v.mask(info))
	v.expect()
}

func (v *verifier) mask(info trace.StallInfo) trace.StallInfo {
	if v.r.Rec.Version < 2 {
		return trace.StallInfo{Pipe: info.Pipe, Stage: info.Stage, SourceOp: -1, Resource: -1}
	}
	return info
}

// OnShift implements trace.Observer.
func (v *verifier) OnShift(pipe int) {
	v.live.OnShift(pipe)
	v.expect()
}

// OnRetire implements trace.Observer.
func (v *verifier) OnRetire(pipe, stage int, packet uint64, entries int) {
	v.live.OnRetire(pipe, stage, packet, entries)
	v.expect()
}

// OnResourceWrite implements trace.Observer.
func (v *verifier) OnResourceWrite(resource int, value uint64) {
	v.live.OnResourceWrite(resource, value)
	v.expect()
}

// OnMemWrite implements trace.Observer. Recordings before version 3
// never saw the writes of banked memories, so those live writes are
// skipped when verifying one.
func (v *verifier) OnMemWrite(resource int, addr, value uint64) {
	if v.r.Rec.Version < 3 && v.r.Sim.M.Resources[resource].Banks > 0 {
		return
	}
	v.live.OnMemWrite(resource, addr, value)
	v.expect()
}
