package trace

// Counters is the one observer that counts events. Its dense tables are
// sized at OnAttach and indexed by the topology's ids, and every counting
// sink — Metrics, the hazard analyzer, the coverage collector and the
// profiler — is an exporter over one. OnAttach starts the counts afresh.
//
// Step attribution charges every control step to exactly one bucket: a
// step with at least one dispatch (decode) is an issue cycle; a
// dispatch-free step before the first dispatch is idle; any other
// dispatch-free step is a penalty cycle, charged to the highest-ranked
// hazard cause seen in that step, else to the most recent hazard step's
// cause (a branch flush explains the bubbles that follow it), so
//
//	Issue + Σ Penalty + Idle == Steps
//
// by construction.
type Counters struct {
	Topo *Topology // the tables' names; never nil after NewCounters

	// Run totals.
	Steps       uint64
	Decodes     uint64 // decode lookups, cache hits included
	DecodeHits  uint64 // decodes the decode cache served
	Activations uint64
	Writes      uint64 // scalar resource writes
	MemWrites   uint64 // memory element writes

	// Step attribution. Penalty[CauseNone] holds penalty cycles with no
	// known cause. Dispatches counts decodes (several share an issue
	// cycle in a VLIW execute packet).
	Issue, Idle, Dispatches uint64
	Penalty                 [NumCauses]uint64

	// Hazard events (not cycles): stalls and flushes by cause, both by
	// gating resource id and by requesting op id, and the stalls one
	// operation requested where another, the victim, executed last.
	StallEvents, FlushEvents [NumCauses]uint64
	ByResource, BySource     []uint64
	Pairs                    []StallPair

	Ops     []OpCounts    // by operation id
	Pipes   []PipeCounts  // by pipe id
	Stages  []StageCounts // every stage of every pipe, pipe by pipe
	OpStage []uint64      // executions by op id and stage: [op*len(Stages)+column]
	Edges   []bool        // activation edges fired: [source*len(Ops)+target]
	Decoded []bool        // operations MarkDecoded marked, by op id

	// Attaches counts OnAttach calls. A sink that caches what it has
	// marked drops the cache when this moves.
	Attaches uint64

	cur            uint64 // current step
	dispatched     bool   // a decode happened this step
	everDispatched bool
	awaitRoot      bool  // the next execution is a decoded root's own
	stepCause      Cause // highest-ranked cause seen this step
	lastCause      Cause // cause of the most recent hazard step
}

// OpCounts holds one operation's counts.
type OpCounts struct {
	Execs       uint64
	Statements  uint64 // behavior statements run
	ActiveSteps uint64 // steps with at least one execution
	FirstStep   uint64 // step of the first execution or behavior
	LastStep    uint64 // step of the last execution
	// RootExecs counts the executions that directly followed a decode:
	// a coding root's own, which is bookkeeping rather than program work.
	RootExecs uint64
	Seen      bool // the operation executed or ran behavior

	lastSeen uint64 // step+1 of the last execution, 0 = never
}

// StageCounts holds one pipeline stage's counts.
type StageCounts struct {
	Occupied       uint64 // steps the stage held a packet
	Execs          uint64
	Flushes        uint64
	RetiredPackets uint64
	RetiredEntries uint64
	Stalls         [NumCauses]uint64 // stall cycles by cause, [CauseNone] unattributed
	LastExec       int               // the operation that executed here last, -1 none
}

// StallCycles returns the stage's stall cycles over every cause.
func (s *StageCounts) StallCycles() uint64 {
	var n uint64
	for _, v := range s.Stalls {
		n += v
	}
	return n
}

// PipeCounts holds one pipeline's counts.
type PipeCounts struct {
	Stages      []StageCounts // this pipe's part of Counters.Stages
	Column      int           // the column of its first stage in Counters.Stages
	Shifts      uint64
	FullStalls  uint64 // whole-pipe (stage -1) stall requests
	FullFlushes uint64 // whole-pipe flushes
	Timeline    Timeline
}

// TimelineBuckets is the fixed resolution of a pipe's timeline; longer
// runs coarsen it (the bucket width doubles) instead of growing it.
const TimelineBuckets = 64

// Timeline is one pipe's occupancy and stall history: bucket i covers
// steps [i*Width, (i+1)*Width) and holds the stage-cycles occupied and
// stalled in them.
type Timeline struct {
	Width             uint64
	Occupied, Stalled []uint64
}

// bucket returns the bucket of step, coarsening the timeline (merging
// bucket pairs, doubling the width) while the step falls beyond the
// fixed bucket count.
func (t *Timeline) bucket(step uint64) int {
	for step/t.Width >= TimelineBuckets {
		t.Occupied, t.Stalled = halve(t.Occupied), halve(t.Stalled)
		t.Width *= 2
	}
	i := int(step / t.Width)
	for len(t.Occupied) <= i {
		t.Occupied = append(t.Occupied, 0)
		t.Stalled = append(t.Stalled, 0)
	}
	return i
}

// halve merges b's buckets pairwise in place.
func halve(b []uint64) []uint64 {
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

// StallPair counts the stalls Source requested in a stage where Victim
// executed last. A run has few distinct pairs, so they are found by a
// scan.
type StallPair struct {
	Source, Victim int
	Stalls         uint64
}

// NewCounters returns an empty counter set; it counts once attached.
func NewCounters() *Counters { return &Counters{Topo: &Topology{}} }

// A Sink is an exporter over a Counters. Attached alone it counts into
// its own; Fanout points every Sink of one fan-out at one Counters and
// puts that Counters in the fan-out once, so a run counts each event
// once however many sinks read it.
type Sink interface {
	Observer
	// Counts returns the Counters the sink reads.
	Counts() *Counters
	// Share makes the sink read c. It returns the observer that must
	// still see the events for the sink besides c, or nil.
	Share(c *Counters) Observer
}

// Counts implements Sink: a Counters reads itself.
func (c *Counters) Counts() *Counters { return c }

// Share implements Sink. A Counters cannot read another, so it stays in
// the fan-out unless it is c.
func (c *Counters) Share(s *Counters) Observer {
	if s == c {
		return nil
	}
	return c
}

// OnAttach implements Observer: it sizes the tables by t and starts every
// count afresh.
func (c *Counters) OnAttach(t *Topology) {
	columns := 0
	for _, p := range t.Pipes {
		columns += len(p.Stages)
	}
	n := len(t.Ops)
	*c = Counters{
		Topo:       t,
		ByResource: make([]uint64, len(t.Resources)),
		BySource:   make([]uint64, n),
		Pairs:      c.Pairs[:0],
		Ops:        make([]OpCounts, n),
		Pipes:      make([]PipeCounts, len(t.Pipes)),
		Stages:     make([]StageCounts, columns),
		OpStage:    make([]uint64, n*columns),
		Edges:      make([]bool, n*n),
		Decoded:    make([]bool, n),
		Attaches:   c.Attaches + 1,
	}
	for i := range c.Stages {
		c.Stages[i].LastExec = -1
	}
	column := 0
	for i, p := range t.Pipes {
		c.Pipes[i] = PipeCounts{
			Stages:   c.Stages[column : column+len(p.Stages)],
			Column:   column,
			Timeline: Timeline{Width: 1, Occupied: make([]uint64, 0, TimelineBuckets), Stalled: make([]uint64, 0, TimelineBuckets)},
		}
		column += len(p.Stages)
	}
}

// op returns the counts of operation id, marking it seen; nil for an id
// outside the table.
func (c *Counters) op(id int) *OpCounts {
	if id < 0 || id >= len(c.Ops) {
		return nil
	}
	o := &c.Ops[id]
	if !o.Seen {
		o.Seen = true
		o.FirstStep = c.cur
	}
	return o
}

// column returns the Stages column of (pipe, stage), or -1.
func (c *Counters) column(pipe, stage int) int {
	if pipe < 0 || pipe >= len(c.Pipes) || stage < 0 || stage >= len(c.Pipes[pipe].Stages) {
		return -1
	}
	return c.Pipes[pipe].Column + stage
}

// OnStepBegin implements Observer.
func (c *Counters) OnStepBegin(step uint64) {
	c.cur = step
	c.dispatched, c.awaitRoot = false, false
	c.stepCause = CauseNone
}

// OnStepEnd implements Observer: it charges the step to one bucket of
// the attribution.
func (c *Counters) OnStepEnd(uint64) {
	c.Steps++
	if c.stepCause != CauseNone {
		c.lastCause = c.stepCause
	}
	switch {
	case c.dispatched:
		c.Issue++
	case !c.everDispatched:
		c.Idle++
	case c.stepCause != CauseNone:
		c.Penalty[c.stepCause]++
	default:
		c.Penalty[c.lastCause]++ // bubbles trail their hazard
	}
}

// OnOccupancy implements Observer.
func (c *Counters) OnOccupancy(pipe int, occupied []bool) {
	if pipe < 0 || pipe >= len(c.Pipes) {
		return
	}
	p := &c.Pipes[pipe]
	n := uint64(0)
	for i, occ := range occupied {
		if occ && i < len(p.Stages) {
			p.Stages[i].Occupied++
			n++
		}
	}
	p.Timeline.Occupied[p.Timeline.bucket(c.cur)] += n
}

// OnDecode implements Observer: a decode is a dispatch, and makes its
// step an issue cycle.
func (c *Counters) OnDecode(root int, word uint64, hit bool) {
	c.Decodes++
	if hit {
		c.DecodeHits++
	}
	c.Dispatches++
	c.dispatched, c.everDispatched, c.awaitRoot = true, true, true
}

// OnActivate implements Observer.
func (c *Counters) OnActivate(source, target int, delay uint64) {
	c.Activations++
	if n := len(c.Ops); source >= 0 && source < n && target >= 0 && target < n {
		c.Edges[source*n+target] = true
	}
}

// OnExec implements Observer.
func (c *Counters) OnExec(op, pipe, stage int, packet uint64) {
	root := c.awaitRoot
	c.awaitRoot = false
	col := c.column(pipe, stage)
	if col >= 0 {
		c.Stages[col].LastExec = op
	}
	o := c.op(op)
	if o == nil {
		return
	}
	o.Execs++
	if root {
		o.RootExecs++
	}
	o.LastStep = c.cur
	if o.lastSeen != c.cur+1 {
		o.lastSeen = c.cur + 1
		o.ActiveSteps++
	}
	if col >= 0 {
		c.Stages[col].Execs++
		c.OpStage[op*len(c.Stages)+col]++
	}
}

// OnBehavior implements Observer.
func (c *Counters) OnBehavior(op int, statements uint64) {
	if o := c.op(op); o != nil {
		o.Statements += statements
	}
}

// hazard counts a stall or flush request for the step's attribution and
// by resource and source, and returns its cause and the pipe it hit,
// nil for none.
func (c *Counters) hazard(info StallInfo) (Cause, *PipeCounts) {
	cause := info.Cause
	if cause >= NumCauses {
		cause = CauseNone
	}
	if cause.Rank() > c.stepCause.Rank() {
		c.stepCause = cause
	}
	if info.Resource >= 0 && info.Resource < len(c.ByResource) {
		c.ByResource[info.Resource]++
	}
	if info.SourceOp >= 0 && info.SourceOp < len(c.BySource) {
		c.BySource[info.SourceOp]++
	}
	if info.Pipe < 0 || info.Pipe >= len(c.Pipes) {
		return cause, nil
	}
	return cause, &c.Pipes[info.Pipe]
}

// OnStall implements Observer. A whole-pipe stall (stage -1) is one
// stall cycle on every stage of the pipe.
func (c *Counters) OnStall(info StallInfo) {
	cause, p := c.hazard(info)
	c.StallEvents[cause]++
	switch {
	case p == nil:
	case info.Stage < 0:
		p.FullStalls++
		for i := range p.Stages {
			p.Stages[i].Stalls[cause]++
		}
		p.Timeline.Stalled[p.Timeline.bucket(c.cur)] += uint64(len(p.Stages))
	case info.Stage < len(p.Stages):
		s := &p.Stages[info.Stage]
		s.Stalls[cause]++
		p.Timeline.Stalled[p.Timeline.bucket(c.cur)]++
		if info.SourceOp >= 0 && s.LastExec >= 0 {
			c.pair(info.SourceOp, s.LastExec)
		}
	}
}

// pair counts one stall source requested on victim.
func (c *Counters) pair(source, victim int) {
	for i := range c.Pairs {
		if p := &c.Pairs[i]; p.Source == source && p.Victim == victim {
			p.Stalls++
			return
		}
	}
	c.Pairs = append(c.Pairs, StallPair{source, victim, 1})
}

// OnFlush implements Observer. A whole-pipe flush is one flush on every
// stage of the pipe.
func (c *Counters) OnFlush(info StallInfo) {
	cause, p := c.hazard(info)
	c.FlushEvents[cause]++
	switch {
	case p == nil:
	case info.Stage < 0:
		p.FullFlushes++
		for i := range p.Stages {
			p.Stages[i].Flushes++
		}
	case info.Stage < len(p.Stages):
		p.Stages[info.Stage].Flushes++
	}
}

// OnShift implements Observer.
func (c *Counters) OnShift(pipe int) {
	if pipe >= 0 && pipe < len(c.Pipes) {
		c.Pipes[pipe].Shifts++
	}
}

// OnRetire implements Observer.
func (c *Counters) OnRetire(pipe, stage int, packet uint64, entries int) {
	if col := c.column(pipe, stage); col >= 0 {
		c.Stages[col].RetiredPackets++
		c.Stages[col].RetiredEntries += uint64(entries)
	}
}

// OnResourceWrite implements Observer.
func (c *Counters) OnResourceWrite(int, uint64) { c.Writes++ }

// OnMemWrite implements Observer.
func (c *Counters) OnMemWrite(int, uint64, uint64) { c.MemWrites++ }

// MarkDecoded marks operation op as selected by a decode. The simulator
// reports decoded instance trees outside the event stream
// (sim.Simulator.OnDecoded); the coverage collector marks their
// operations here.
func (c *Counters) MarkDecoded(op int) {
	if op >= 0 && op < len(c.Decoded) {
		c.Decoded[op] = true
	}
}
