package cosim

import (
	"fmt"
	"io"
	"log/slog"

	"golisa/internal/model"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Lockstep runs a reference simulator of the same model in lockstep with
// the kernel's CPU — one reference control step per clock cycle — and
// compares the two architectural states after every cycle. It is the
// observability side of co-simulation: a compiled simulator can be
// checked against its interpretive reference (or any two scheduling modes
// against each other) while the system runs, and the first divergence is
// reported with full flight-recorder context instead of surfacing as a
// mysteriously wrong result millions of cycles later.
//
// On the first mismatch the device latches Diverged/Detail/Cycle, notes a
// KindDiverge event in the attached flight recorder, dumps the ring to
// Out, and invokes OnDivergence. Comparison stops after the first hit so
// a diverged run does not flood its log.
type Lockstep struct {
	// Ref is the reference simulator; it must have been created from the
	// same model and loaded with the same program as the kernel's CPU.
	Ref *sim.Simulator

	// CPUState, when non-nil, supplies the CPU-side architectural state
	// instead of a *sim.Simulator — the seam that lets engines living
	// outside package sim (the generated-code simulator, for one) be
	// lockstep-checked against the interpretive reference. The returned
	// state must be slot-compatible with Ref's model.
	CPUState func() *model.State

	// Flight, when non-nil, receives a KindDiverge note so post-mortem
	// dumps show the divergence amid the events that led to it.
	Flight *trace.Flight
	// CPURec and RefRec, when non-nil, are the recorders attached to the
	// CPU and reference simulators. On divergence each recording gets a
	// divergence note (so lisa-replay shows it in context), and the last
	// WindowCycles pre-divergence cycles of both event streams are dumped
	// to Out side by side — the exact schedule each simulator ran, not
	// just the end-state mismatch.
	CPURec *replay.Recorder
	RefRec *replay.Recorder
	// WindowCycles bounds the pre-divergence window dumped from the
	// recordings; 0 means the default of 8 cycles.
	WindowCycles uint64
	// Out, when non-nil, receives the flight-ring dump (and, unless Log
	// is set, the one-line divergence diagnostic) the moment a mismatch
	// is found.
	Out io.Writer
	// Log, when non-nil, receives the divergence as a structured log/slog
	// record (cycle, detail) instead of the free-text line on Out, so
	// service deployments get parseable divergence logs. The ring and
	// window dumps still go to Out — they are multi-line post-mortem
	// artifacts, not log records.
	Log *slog.Logger
	// OnDivergence, when non-nil, is called once on the first mismatch.
	OnDivergence func(cycle uint64, detail string)

	// Diverged, Detail and Cycle record the first mismatch.
	Diverged bool
	Detail   string
	Cycle    uint64

	cpu *sim.Simulator
}

// NewLockstep creates a lockstep checker comparing the kernel's CPU
// against a reference simulator of the same model.
func NewLockstep(cpu, ref *sim.Simulator) *Lockstep {
	return &Lockstep{Ref: ref, cpu: cpu}
}

// NewLockstepState creates a lockstep checker whose CPU side is any
// engine that can render its architectural state as a *model.State. The
// caller drives Tick once per completed CPU control step.
func NewLockstepState(state func() *model.State, ref *sim.Simulator) *Lockstep {
	return &Lockstep{Ref: ref, CPUState: state}
}

// Name implements Device.
func (l *Lockstep) Name() string { return "lockstep" }

// Tick implements Device: the kernel has already stepped the CPU for this
// cycle, so advance the reference by one step and compare.
func (l *Lockstep) Tick(cycle uint64) {
	if l.Diverged {
		return
	}
	if !l.Ref.Halted() {
		if err := l.Ref.RunStep(); err != nil {
			l.diverge(cycle, fmt.Sprintf("reference simulator error: %v", err))
			return
		}
	}
	var cpuS *model.State
	if l.CPUState != nil {
		cpuS = l.CPUState()
	} else {
		cpuS = l.cpu.S
	}
	if eq, detail := cpuS.Equal(l.Ref.S); !eq {
		l.diverge(cycle, detail)
	}
}

func (l *Lockstep) diverge(cycle uint64, detail string) {
	l.Diverged = true
	l.Detail = detail
	l.Cycle = cycle
	if l.Flight != nil {
		l.Flight.Note(trace.KindDiverge, detail, cycle)
	}
	if l.CPURec != nil {
		l.CPURec.Note("cosim divergence: "+detail, cycle)
	}
	if l.RefRec != nil {
		l.RefRec.Note("cosim divergence: "+detail, cycle)
	}
	if l.Log != nil {
		l.Log.Error("cosim divergence", "cycle", cycle, "detail", detail)
	}
	if l.Out != nil {
		if l.Log == nil {
			fmt.Fprintf(l.Out, "cosim divergence at cycle %d: %s\n", cycle, detail)
		}
		if l.Flight != nil {
			_ = l.Flight.Dump(l.Out)
		}
		l.dumpWindow(l.Out, "cpu", l.CPURec, cycle)
		l.dumpWindow(l.Out, "ref", l.RefRec, cycle)
	}
	if l.OnDivergence != nil {
		l.OnDivergence(cycle, detail)
	}
}

// dumpWindow prints the recorded events of the last WindowCycles cycles
// leading up to (and including) the divergence cycle.
func (l *Lockstep) dumpWindow(w io.Writer, label string, rec *replay.Recorder, cycle uint64) {
	if rec == nil {
		return
	}
	window := l.WindowCycles
	if window == 0 {
		window = 8
	}
	lo := uint64(0)
	if cycle >= window {
		lo = cycle - window + 1
	}
	fmt.Fprintf(w, "%s recording, cycles %d..%d before divergence:\n", label, lo, cycle)
	n := 0
	if tail := rec.Tail(); tail != nil {
		for _, e := range tail.Events() {
			if e.Step < lo || e.Step > cycle {
				continue
			}
			fmt.Fprintf(w, "  %s\n", tail.Format(e))
			n++
		}
	}
	if n == 0 {
		fmt.Fprintf(w, "  (no events in window)\n")
	}
}
