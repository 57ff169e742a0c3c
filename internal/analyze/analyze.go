// Package analyze implements the hazard attribution engine of the golisa
// simulators: a trace.Observer that consumes the cause-annotated stall and
// flush events of the pipeline model and explains
// where the simulated cycles went — per-cause, per-resource and
// per-operation-pair stall matrices, per-stage occupancy timelines, a CPI
// breakdown, and a what-if estimate of the CPI gained by eliminating each
// hazard class.
//
// Cycle attribution mirrors internal/profile exactly: a control step with
// at least one instruction dispatch is an issue cycle; a dispatch-free
// step is a penalty cycle, charged to the highest-ranked hazard cause
// observed in that step, falling back to the most recent step's cause (a
// branch flush explains the bubble steps that follow it); dispatch-free
// steps before the first dispatch are idle. The resulting buckets satisfy
//
//	issue + Σ penalty(cause) + other + idle == steps
//
// by construction — the same invariant the profiler's issue/penalty split
// obeys — so the two reports reconcile cycle for cycle.
package analyze

import (
	"golisa/internal/trace"
)

// timelineBuckets is the fixed resolution of the per-pipe occupancy
// timeline; longer runs coarsen (bucket width doubles) instead of growing.
const timelineBuckets = 64

// stageStats accumulates per-stage hazard counters.
type stageStats struct {
	occupied    uint64
	flushes     uint64
	stallCycles [trace.NumCauses]uint64 // [CauseNone] = unattributed
	lastExec    int                     // op last executed here, -1 none
}

func (st *stageStats) stallTotal() uint64 {
	var n uint64
	for _, v := range st.stallCycles {
		n += v
	}
	return n
}

// timeline is one pipe's occupancy/stall history at fixed resolution:
// bucket i covers steps [i*width, (i+1)*width).
type timeline struct {
	width  uint64
	stages int
	occ    []uint64 // occupied stage-cycles per bucket
	stall  []uint64 // stall cycles per bucket
}

func newTimeline(stages int) *timeline {
	return &timeline{width: 1, stages: stages}
}

// bucket returns the bucket index for a step, coarsening the timeline
// (merging bucket pairs, doubling the width) whenever the step falls
// beyond the fixed bucket count.
func (t *timeline) bucket(step uint64) int {
	for step/t.width >= timelineBuckets {
		half := func(b []uint64) []uint64 {
			n := (len(b) + 1) / 2
			for i := 0; i < n; i++ {
				v := b[2*i]
				if 2*i+1 < len(b) {
					v += b[2*i+1]
				}
				b[i] = v
			}
			return b[:n]
		}
		t.occ = half(t.occ)
		t.stall = half(t.stall)
		t.width *= 2
	}
	i := int(step / t.width)
	for len(t.occ) <= i {
		t.occ = append(t.occ, 0)
	}
	for len(t.stall) <= i {
		t.stall = append(t.stall, 0)
	}
	return i
}

func (t *timeline) addOcc(step, n uint64)   { t.occ[t.bucket(step)] += n }
func (t *timeline) addStall(step, n uint64) { t.stall[t.bucket(step)] += n }

// Analyzer is the hazard-attribution observer. Attach it to a simulator
// (alone or in a trace.Fanout); OnAttach resets all state, so one Analyzer
// can be re-attached for repeated runs or replay passes.
type Analyzer struct {
	trace.Nop

	topo   *trace.Topology
	stages [][]*stageStats
	lines  []*timeline

	steps   uint64
	issue   uint64
	idle    uint64
	penalty [trace.NumCauses]uint64 // [CauseNone] = penalty with no known cause

	dispatches     uint64
	everDispatched bool

	cur       uint64      // current step
	decoded   bool        // a dispatch happened this step
	stepCause trace.Cause // highest-ranked cause seen this step
	lastCause trace.Cause // sticky: cause of the most recent hazard step

	stallEvents [trace.NumCauses]uint64
	flushEvents [trace.NumCauses]uint64
	byResource  []uint64 // hazard events by gating resource id
	bySource    []uint64 // hazard events by requesting op id
	pairs       []pair   // stalls by (requesting op, victim op), first seen first
}

// pair counts the stalls one operation requested in a stage where
// another, the victim, executed last. A run has few distinct pairs, so
// they are found by a scan.
type pair struct {
	source, victim int
	stalls         uint64
}

// New creates an empty analyzer; it becomes usable once attached.
func New() *Analyzer { return &Analyzer{topo: &trace.Topology{}} }

// OnAttach implements trace.Observer. It RESETS all accumulated state:
// the replayer re-announces the topology on every seek, and the analyzer
// must attribute a re-executed run from scratch to match the live one.
func (a *Analyzer) OnAttach(t *trace.Topology) {
	a.topo = t
	a.stages = a.stages[:0]
	a.lines = a.lines[:0]
	for _, pi := range t.Pipes {
		row := make([]*stageStats, len(pi.Stages))
		for i := range row {
			row[i] = &stageStats{lastExec: -1}
		}
		a.stages = append(a.stages, row)
		a.lines = append(a.lines, newTimeline(len(pi.Stages)))
	}
	a.steps, a.issue, a.idle = 0, 0, 0
	a.penalty = [trace.NumCauses]uint64{}
	a.stallEvents = [trace.NumCauses]uint64{}
	a.flushEvents = [trace.NumCauses]uint64{}
	a.dispatches = 0
	a.everDispatched = false
	a.cur, a.decoded = 0, false
	a.stepCause, a.lastCause = trace.CauseNone, trace.CauseNone
	a.byResource = make([]uint64, len(t.Resources))
	a.bySource = make([]uint64, len(t.Ops))
	a.pairs = a.pairs[:0]
}

// OnStepBegin implements trace.Observer.
func (a *Analyzer) OnStepBegin(step uint64) {
	a.cur = step
	a.decoded = false
	a.stepCause = trace.CauseNone
}

// OnStepEnd implements trace.Observer: the step's cycle is attributed to
// exactly one bucket (see the package comment for the model).
func (a *Analyzer) OnStepEnd(uint64) {
	a.steps++
	if a.stepCause != trace.CauseNone {
		a.lastCause = a.stepCause
	}
	switch {
	case a.decoded:
		a.issue++
	case !a.everDispatched:
		a.idle++
	default:
		c := a.stepCause
		if c == trace.CauseNone {
			c = a.lastCause // bubbles trail their hazard (branch shadows)
		}
		a.penalty[c]++
	}
}

// OnDecode implements trace.Observer: any decode makes the step an issue
// cycle (parallel decodes — a VLIW execute packet — share it).
func (a *Analyzer) OnDecode(int, uint64, bool) {
	a.decoded = true
	a.everDispatched = true
	a.dispatches++
}

// OnOccupancy implements trace.Observer.
func (a *Analyzer) OnOccupancy(pipe int, occupied []bool) {
	if pipe < 0 || pipe >= len(a.stages) {
		return
	}
	row := a.stages[pipe]
	n := uint64(0)
	for i, occ := range occupied {
		if occ && i < len(row) {
			row[i].occupied++
			n++
		}
	}
	a.lines[pipe].addOcc(a.cur, n)
}

// OnExec implements trace.Observer: the last operation executed in each
// (pipe, stage) is the presumed victim of a later stall there.
func (a *Analyzer) OnExec(op, pipe, stage int, packet uint64) {
	if pipe >= 0 && pipe < len(a.stages) && stage >= 0 && stage < len(a.stages[pipe]) {
		a.stages[pipe][stage].lastExec = op
	}
}

// rankCause keeps the highest-ranked cause seen this step.
func (a *Analyzer) rankCause(c trace.Cause) {
	if c.Rank() > a.stepCause.Rank() {
		a.stepCause = c
	}
}

// OnStall implements trace.Observer.
func (a *Analyzer) OnStall(info trace.StallInfo) {
	c := info.Cause
	if c >= trace.NumCauses {
		c = trace.CauseNone
	}
	a.rankCause(c)
	a.stallEvents[c]++
	a.countHazard(info)
	if info.Pipe < 0 || info.Pipe >= len(a.stages) {
		return
	}
	row := a.stages[info.Pipe]
	if info.Stage < 0 {
		for _, st := range row {
			st.stallCycles[c]++
		}
		a.lines[info.Pipe].addStall(a.cur, uint64(len(row)))
	} else if info.Stage < len(row) {
		st := row[info.Stage]
		st.stallCycles[c]++
		a.lines[info.Pipe].addStall(a.cur, 1)
		if info.SourceOp >= 0 && st.lastExec >= 0 {
			a.countPair(info.SourceOp, st.lastExec)
		}
	}
}

// countPair counts one stall source requested on victim.
func (a *Analyzer) countPair(source, victim int) {
	for i := range a.pairs {
		if p := &a.pairs[i]; p.source == source && p.victim == victim {
			p.stalls++
			return
		}
	}
	a.pairs = append(a.pairs, pair{source, victim, 1})
}

// countHazard counts a stall or flush against its gating resource and
// its requesting operation.
func (a *Analyzer) countHazard(info trace.StallInfo) {
	if info.Resource >= 0 && info.Resource < len(a.byResource) {
		a.byResource[info.Resource]++
	}
	if info.SourceOp >= 0 && info.SourceOp < len(a.bySource) {
		a.bySource[info.SourceOp]++
	}
}

// OnFlush implements trace.Observer.
func (a *Analyzer) OnFlush(info trace.StallInfo) {
	c := info.Cause
	if c >= trace.NumCauses {
		c = trace.CauseNone
	}
	a.rankCause(c)
	a.flushEvents[c]++
	a.countHazard(info)
	if info.Pipe < 0 || info.Pipe >= len(a.stages) {
		return
	}
	row := a.stages[info.Pipe]
	if info.Stage < 0 {
		for _, st := range row {
			st.flushes++
		}
	} else if info.Stage < len(row) {
		row[info.Stage].flushes++
	}
}

// Steps returns the number of analyzed control steps.
func (a *Analyzer) Steps() uint64 { return a.steps }

// IssueCycles returns the steps that dispatched at least one instruction.
func (a *Analyzer) IssueCycles() uint64 { return a.issue }

// PenaltyCycles returns the penalty cycles attributed to cause c
// (trace.CauseNone returns the unattributed remainder).
func (a *Analyzer) PenaltyCycles(c trace.Cause) uint64 {
	if c >= trace.NumCauses {
		return 0
	}
	return a.penalty[c]
}

// IdleCycles returns the dispatch-free steps before the first dispatch.
func (a *Analyzer) IdleCycles() uint64 { return a.idle }
