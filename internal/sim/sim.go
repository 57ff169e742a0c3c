// Package sim implements the retargetable simulators generated from LISA
// models: the control-step loop, activation scheduling with spatial-distance
// timing, the generic pipeline mechanisms, and both simulation techniques
// the paper contrasts — interpretive (decode every execution) and compiled
// (decode once, pre-bind, re-execute).
package sim

import (
	"fmt"

	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/pipeline"
	"golisa/internal/trace"
)

// Mode selects the simulation technique.
type Mode int

// Simulation modes. Interpretive re-decodes the instruction word on every
// execution of a coding root; Compiled decodes once per distinct word and
// reuses the bound instance (the paper's compiled-simulation principle);
// CompiledPrebound additionally pre-compiles behavior into closures.
// Generated is the true compiled tier (internal/gosim): the program is
// translated to specialized Go code. A sim.Simulator built in Generated
// mode behaves exactly like CompiledPrebound — it is the in-process
// fallback engine the generated tier degrades to when a model or program
// is outside the static-schedule class gosim can translate.
const (
	Interpretive Mode = iota
	Compiled
	CompiledPrebound
	Generated
)

func (m Mode) String() string {
	switch m {
	case Interpretive:
		return "interpretive"
	case Compiled:
		return "compiled"
	case CompiledPrebound:
		return "compiled+prebound"
	case Generated:
		return "generated"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ValidModes is ParseMode's vocabulary of flag names, in help-text order.
const ValidModes = "interpretive, compiled, prebound, generated"

// ParseMode maps a mode name to a mode. It accepts the flag names and
// every String() value (prebound is CompiledPrebound's flag name), so a
// mode read back from a summary, stream record or ledger engine key
// parses again.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "interpretive":
		return Interpretive, nil
	case "compiled":
		return Compiled, nil
	case "prebound", "compiled+prebound":
		return CompiledPrebound, nil
	case "generated":
		return Generated, nil
	}
	return 0, fmt.Errorf("unknown mode %q (valid modes: %s)", name, ValidModes)
}

// Profile collects execution statistics.
type Profile struct {
	Steps       uint64            // control steps executed
	Execs       map[string]uint64 // operation executions by name
	Decodes     uint64            // coding-root decode operations performed
	DecodeHits  uint64            // decode-cache hits (compiled modes)
	Activations uint64            // scheduled activations
	Retired     uint64            // packets retired from last pipeline stages

	// Pipeline mechanism counts, aggregated over all pipelines.
	Stalls  uint64 // stall requests (stage or whole-pipe)
	Flushes uint64 // flush requests
	Shifts  uint64 // granted shifts

	// RetiredByStage counts retired packets per retiring stage, keyed by
	// the canonical "pipe.stage" signal name of each pipe's last stage.
	RetiredByStage map[string]uint64

	// Artifact-sharing counters. SharedDecodeHits is the subset of
	// DecodeHits served from a shared artifact's pre-warmed cache;
	// Compiles counts behavior closures and activation expressions
	// compiled by this simulator at run time (pre-compiled artifact
	// closures do not count). A fully pre-warmed prebound fleet job keeps
	// both Decodes and Compiles at zero — the zero-recompilation property
	// the fleet asserts.
	SharedDecodeHits uint64
	Compiles         uint64
}

// runItem is one pending execution with its pipeline context.
type runItem struct {
	inst   *model.Instance
	pipe   *pipeline.Pipe
	stage  int
	packet *pipeline.Packet

	// pipeOp, when set, makes the item a delayed operation on pipe/stage
	// instead of an instance execution. info indexes the hazard
	// attribution captured at request time in the wheel slot's infos (the
	// requesting operation's guards and packet are gone by the time the
	// item fires), or is -1: unattributed.
	pipeOp pipeline.Op
	info   int32
}

// Simulator executes a LISA model cycle by cycle.
type Simulator struct {
	M *model.Model
	S *model.State

	// MainOp is the operation executed every control step (default "main").
	MainOp string
	// ResetOp, when present in the model, runs once at Reset (default
	// "reset").
	ResetOp string
	// HaltResource, when present in the model, stops Run when nonzero
	// (default "halt").
	HaltResource string

	// OnPrint receives output of the print(...) builtin; nil discards.
	OnPrint func(string)
	// OnDecoded, when non-nil, receives the bound instance every coding-root
	// decode produced (cache hits included) — the decode-side seam the
	// coverage collector uses to see which coding-tree leaves a word
	// selected, information the OnDecode event cannot carry.
	// Implementations must not mutate the instance. A simulation without
	// the hook pays one nil check per decode.
	OnDecoded func(in *model.Instance)
	// Gate, when non-nil, is invoked at the top of every control step,
	// before any event of that step is emitted, and may block — it is the
	// run-control seam debuggers use to pause, single-step and break a
	// simulation driven from another goroutine (see internal/debug). An
	// ungated simulation pays one nil check per control step.
	Gate func(step uint64)

	mode  Mode
	x     *behavior.Exec
	dec   *coding.Decoder
	pipes []*pipeline.Pipe // by model.Pipeline.Index

	// wheel is the delayed-activation ring: the items due at step t sit in
	// wheel[t%len(wheel)], which spans the model's longest delay. infos
	// holds, slot by slot, the attribution of the delayed pipeline
	// operations there (observed runs only).
	wheel    [][]runItem
	infos    [][]trace.StallInfo
	runQ     []runItem
	runHead  int
	readyBuf []pipeline.ReadyEntry
	step     uint64
	cur      runItem // execution context of the instance currently running
	prof     Profile
	execs    []uint64       // executions by model.Operation.Index
	obs      trace.Observer // nil = uninstrumented fast path
	occBuf   []bool         // reused occupancy sample buffer

	// main is the static instance of MainOp, resolved when mainName (the
	// name it was resolved from) differs from MainOp.
	main     *model.Instance
	mainName string

	// Hazard-attribution context, maintained only while an observer is
	// attached: the stack of ACTIVATION conditions enclosing the item
	// currently processed, each as the ids of the resources it names.
	actGuards [][]int

	decodeCache map[decodeKey]*model.Instance
	staticInst  map[*model.Operation]*model.Instance
	halt        *model.Resource

	// Read-only views into a shared Artifact (nil for standalone
	// simulators). Lookups consult these before the private maps above;
	// misses are cached privately, so concurrent simulators never write
	// to shared memory.
	sharedDecode map[decodeKey]*model.Instance
	sharedStatic map[*model.Operation]*model.Instance
}

type decodeKey struct {
	op   *model.Operation
	word uint64
}

// New creates a simulator for the model in the given mode, with all caches
// private (and therefore cold). Batch workloads that run many programs on
// one model should build a shared Artifact once and use NewFromArtifact
// instead.
func New(m *model.Model, mode Mode) *Simulator {
	return newSimulator(m, mode, nil)
}

// newSimulator builds the per-run state; a non-nil artifact contributes
// the shared static instances, decode cache and compiled closures. The
// decoder is the model's (coding.For).
func newSimulator(m *model.Model, mode Mode, a *Artifact) *Simulator {
	s := &Simulator{
		M:            m,
		S:            model.NewState(m),
		MainOp:       "main",
		ResetOp:      "reset",
		HaltResource: "halt",
		mode:         mode,
		dec:          coding.For(m),
		decodeCache:  map[decodeKey]*model.Instance{},
		staticInst:   map[*model.Operation]*model.Instance{},
		execs:        make([]uint64, len(m.OpList)),
		runQ:         make([]runItem, 0, 64),
	}
	if a != nil {
		s.sharedDecode = a.decode
		s.sharedStatic = a.static
	}
	s.wheel = make([][]runItem, wheelSpan(m))
	s.infos = make([][]trace.StallInfo, len(s.wheel))
	for _, pd := range m.Pipelines {
		s.pipes = append(s.pipes, pipeline.New(pd))
	}
	s.x = &behavior.Exec{M: m, S: s.S, Ctx: (*simCtx)(s), Static: s.static}
	if a != nil {
		s.x.Shared = a.shared
	}
	s.halt = m.Resource(s.HaltResource)
	return s
}

// Mode returns the simulation mode.
func (s *Simulator) Mode() Mode { return s.mode }

// SetObserver attaches a trace.Observer to the simulator, the pipelines,
// the behavior engine and the machine state, or detaches everything when
// o is nil. o goes through trace.Fanout, so a lone trace.Sink attaches
// with its Counters. The observer receives OnAttach with the model's
// topology and name tables immediately. With no observer attached every
// hook site costs one nil check.
func (s *Simulator) SetObserver(o trace.Observer) {
	o = trace.Fanout(o)
	s.SwapObserver(o)
	if o == nil {
		return
	}
	t := &trace.Topology{
		Model:     s.M.Name,
		Pipes:     make([]trace.PipeInfo, len(s.pipes)),
		Ops:       make([]string, len(s.M.OpList)),
		Resources: make([]string, len(s.M.Resources)),
	}
	for i, p := range s.pipes {
		t.Pipes[i] = trace.PipeInfo{Name: p.Def.Name, Stages: p.Def.Stages}
	}
	for i, op := range s.M.OpList {
		t.Ops[i] = op.Name
	}
	for i, r := range s.M.Resources {
		t.Resources[i] = r.Name
	}
	o.OnAttach(t)
}

// SwapObserver installs (or, with nil, removes) an observer WITHOUT
// firing OnAttach, and returns the previously attached one. Run-control
// tooling uses it to detach observers around checkpoint-restore catch-up
// re-execution and put them back untouched — re-announcing OnAttach would
// reset stateful observers such as the metrics collector.
func (s *Simulator) SwapObserver(o trace.Observer) trace.Observer {
	prev := s.obs
	s.obs = o
	for _, p := range s.pipes {
		p.Obs = o
	}
	if o == nil {
		s.x.Obs = nil
		s.S.OnWrite = nil
		s.S.OnWriteElem = nil
		return prev
	}
	s.x.Obs = o
	s.S.OnWrite = func(r *model.Resource, v bitvec.Value) { o.OnResourceWrite(r.Index, v.Uint()) }
	s.S.OnWriteElem = func(r *model.Resource, addr uint64, v bitvec.Value) { o.OnMemWrite(r.Index, addr, v.Uint()) }
	return prev
}

// Observer returns the attached observer, or nil.
func (s *Simulator) Observer() trace.Observer { return s.obs }

// Profile returns a copy of the collected statistics, including the
// pipeline mechanism counters aggregated from the runtime pipes.
func (s *Simulator) Profile() Profile {
	p := s.prof
	p.Compiles = s.x.Compiles
	p.Execs = s.execCounts()
	p.RetiredByStage = map[string]uint64{}
	for _, pipe := range s.pipes {
		p.Stalls += pipe.Stalls
		p.Flushes += pipe.Flushes
		p.Shifts += pipe.Shifts
		if pipe.Retires > 0 {
			stages := pipe.Def.Stages
			p.RetiredByStage[trace.StageTrack(pipe.Def.Name, stages[len(stages)-1])] = pipe.Retires
		}
	}
	return p
}

// execCounts returns the nonzero execution counts by operation name.
func (s *Simulator) execCounts() map[string]uint64 {
	counts := map[string]uint64{}
	for _, op := range s.M.OpList {
		if n := s.execs[op.Index]; n > 0 {
			counts[op.Name] = n
		}
	}
	return counts
}

// Step returns the current control-step number.
func (s *Simulator) Step() uint64 { return s.step }

// Reset zeroes state, clears pipelines and schedules, and runs the model's
// reset operation if it exists.
func (s *Simulator) Reset() error {
	s.S.Reset()
	for _, p := range s.pipes {
		p.Reset()
	}
	s.clearWheel()
	s.runQ = s.runQ[:0]
	s.runHead = 0
	s.actGuards = s.actGuards[:0]
	s.step = 0
	s.prof = Profile{}
	s.x.Compiles = 0
	clear(s.execs)
	if op, ok := s.M.Ops[s.ResetOp]; ok {
		if err := s.execute(runItem{inst: s.static(op)}); err != nil {
			return err
		}
		// Latch writes from reset take effect immediately.
		s.S.Commit()
	}
	return nil
}

// Halted reports whether the model's halt resource is nonzero.
func (s *Simulator) Halted() bool {
	return s.halt != nil && s.S.Read(s.halt).Bool()
}

// Run executes control steps until the halt resource becomes nonzero or
// maxSteps steps have run. It returns the number of steps executed.
func (s *Simulator) Run(maxSteps uint64) (uint64, error) {
	var n uint64
	for n < maxSteps {
		if s.Halted() {
			return n, nil
		}
		if err := s.RunStep(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RunStep executes exactly one control step.
func (s *Simulator) RunStep() error {
	if s.Gate != nil {
		s.Gate(s.step)
	}
	if s.obs != nil {
		s.obs.OnStepBegin(s.step)
	}
	for _, p := range s.pipes {
		p.BeginStep()
	}
	s.runQ = s.runQ[:0]
	s.runHead = 0

	// 1. The main operation initiates each control step.
	if s.mainName != s.MainOp {
		s.mainName, s.main = s.MainOp, nil
		if op, ok := s.M.Ops[s.MainOp]; ok {
			s.main = s.static(op)
		}
	}
	if s.main != nil {
		s.enqueue(runItem{inst: s.main})
	}
	if err := s.drain(); err != nil {
		return err
	}

	// 2. Time-wheel entries due this step (delayed activations).
	slot := s.step % uint64(len(s.wheel))
	if due := &s.wheel[slot]; len(*due) > 0 {
		s.runQ = append(s.runQ, *due...)
		*due = (*due)[:0]
		err := s.drain()
		s.infos[slot] = s.infos[slot][:0]
		if err != nil {
			return err
		}
	}

	// 3. Pipeline packets: execute entries sitting in their stages, to a
	// fixpoint (an executing entry can insert more work for this step).
	for {
		ready := 0
		for _, p := range s.pipes {
			s.readyBuf = p.ReadyAppend(s.readyBuf[:0])
			for _, r := range s.readyBuf {
				r.Entry.MarkExecuted()
				ready++
				if r.Entry.Extra > 0 {
					s.schedule(s.step+uint64(r.Entry.Extra), runItem{
						inst: r.Entry.Inst, pipe: p, stage: r.Entry.StageIdx,
					})
					continue
				}
				s.enqueue(runItem{inst: r.Entry.Inst, pipe: p, stage: r.Stage, packet: r.Packet})
			}
		}
		if ready == 0 {
			break
		}
		if err := s.drain(); err != nil {
			return err
		}
	}

	// 4. End of step: commit latch writes, shifts, stall clearing,
	// retirement. Occupancy is sampled first, while the packets still sit
	// in the stages they occupied during this step.
	if s.obs != nil {
		for i, p := range s.pipes {
			s.occBuf = p.OccupancyAppend(s.occBuf[:0])
			s.obs.OnOccupancy(i, s.occBuf)
		}
	}
	s.S.Commit()
	for _, p := range s.pipes {
		if p.EndStep() != nil {
			s.prof.Retired++
		}
	}
	s.step++
	s.prof.Steps++
	if s.obs != nil {
		s.obs.OnStepEnd(s.step - 1)
	}
	return nil
}

func (s *Simulator) enqueue(it runItem) { s.runQ = append(s.runQ, it) }

func (s *Simulator) schedule(step uint64, it runItem) {
	s.prof.Activations++
	s.addDelayed(step, it)
}

// addDelayed files it under a step within the wheel's span ahead.
func (s *Simulator) addDelayed(step uint64, it runItem) {
	slot := &s.wheel[step%uint64(len(s.wheel))]
	*slot = append(*slot, it)
}

// clearWheel drops every delayed item.
func (s *Simulator) clearWheel() {
	for i := range s.wheel {
		s.wheel[i], s.infos[i] = s.wheel[i][:0], s.infos[i][:0]
	}
}

// wheelSpan is the number of steps the delayed-activation ring covers: an
// activation lands at most the deepest pipeline's stage distance plus the
// longest ';' delay ahead.
func wheelSpan(m *model.Model) int {
	depth := 1
	for _, p := range m.Pipelines {
		depth = max(depth, p.Depth())
	}
	return depth + m.MaxActDelay
}

func (s *Simulator) drain() error {
	for s.runHead < len(s.runQ) {
		it := s.runQ[s.runHead]
		s.runHead++
		if it.pipeOp != 0 {
			// Pipeline operations queue only from the wheel slot due now.
			info := unattributed
			if it.info >= 0 {
				info = s.infos[s.step%uint64(len(s.wheel))][it.info]
			}
			it.pipe.Apply(it.pipeOp, it.stage, info)
			continue
		}
		if err := s.execute(it); err != nil {
			return err
		}
	}
	s.runQ = s.runQ[:0]
	s.runHead = 0
	return nil
}

// static returns the shared unbound instance for an operation (instances
// are immutable after binding, so sharing is safe). Artifact-backed
// simulators use the artifact's pre-resolved instances; operations the
// artifact could not pre-bind fall back to a private lazy instance.
func (s *Simulator) static(op *model.Operation) *model.Instance {
	if in, ok := s.sharedStatic[op]; ok {
		return in
	}
	if in, ok := s.staticInst[op]; ok {
		return in
	}
	in := model.NewInstance(op)
	s.staticInst[op] = in
	return in
}

// execute runs one instance: decode (for coding roots), behavior, then
// activation processing.
func (s *Simulator) execute(it runItem) error {
	op := it.inst.Op
	if op.IsCodingRoot {
		decoded, err := s.decodeRoot(op)
		if err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
		it.inst = decoded
	}
	if it.inst.Variant == nil {
		if err := it.inst.ResolveVariant(); err != nil {
			return fmt.Errorf("step %d: %w", s.step, err)
		}
	}
	prev := s.cur
	s.cur = it
	err := s.run(&it)
	s.cur = prev
	if err != nil {
		return fmt.Errorf("step %d, operation %s: %w", s.step, op.Name, err)
	}
	return nil
}

// run executes a decoded instance's behavior and then its activation plan.
func (s *Simulator) run(it *runItem) error {
	in := it.inst
	if s.obs != nil {
		pipeIdx, pkt := -1, uint64(0)
		if it.pipe != nil {
			pipeIdx = it.pipe.Def.Index
		}
		if it.packet != nil {
			pkt = it.packet.ID
		}
		s.obs.OnExec(in.Op.Index, pipeIdx, it.stage, pkt)
	}
	s.execs[in.Op.Index]++
	var plan []behavior.ActStep
	var err error
	if s.mode.prebinds() {
		// One lookup yields the compiled behavior and its bound plan.
		plan, err = behavior.RunCompiled(s.x, in)
	} else if err = s.x.Run(in); err == nil {
		plan = behavior.BindActivation(s.x, in)
	}
	if err != nil {
		return err
	}
	return s.processActivation(in, plan, it)
}

// prebinds reports whether a mode pre-compiles behavior into closures.
// Generated shares the prebound in-process engine: the gosim tier runs
// outside the Simulator entirely, so a Generated Simulator is the
// fallback and must be the fastest interpreter available.
func (m Mode) prebinds() bool { return m == CompiledPrebound || m == Generated }

// decodeRoot reads the root's compared resource and decodes it into a bound
// instance, using the decode cache in compiled modes.
func (s *Simulator) decodeRoot(op *model.Operation) (*model.Instance, error) {
	if op.RootResource == nil {
		return nil, fmt.Errorf("coding root %s has no resource", op.Name)
	}
	word := s.S.Read(op.RootResource)
	if s.mode != Interpretive {
		key := decodeKey{op, word.Uint()}
		if in, ok := s.sharedDecode[key]; ok {
			s.prof.DecodeHits++
			s.prof.SharedDecodeHits++
			if s.obs != nil {
				s.obs.OnDecode(op.Index, word.Uint(), true)
			}
			if s.OnDecoded != nil {
				s.OnDecoded(in)
			}
			return in, nil
		}
		if in, ok := s.decodeCache[key]; ok {
			s.prof.DecodeHits++
			if s.obs != nil {
				s.obs.OnDecode(op.Index, word.Uint(), true)
			}
			if s.OnDecoded != nil {
				s.OnDecoded(in)
			}
			return in, nil
		}
		in, err := s.dec.DecodeRoot(op, word)
		if err != nil {
			return nil, err
		}
		s.prof.Decodes++
		if s.obs != nil {
			s.obs.OnDecode(op.Index, word.Uint(), false)
		}
		if s.OnDecoded != nil {
			s.OnDecoded(in)
		}
		s.decodeCache[key] = in
		return in, nil
	}
	s.prof.Decodes++
	if s.obs != nil {
		s.obs.OnDecode(op.Index, word.Uint(), false)
	}
	in, err := s.dec.DecodeRoot(op, word)
	if err != nil {
		return nil, err
	}
	if s.OnDecoded != nil {
		s.OnDecoded(in)
	}
	return in, nil
}

// --- activation processing -----------------------------------------------------

// processActivation walks a bound activation plan of in; ctx is the
// pipeline context in executed in.
func (s *Simulator) processActivation(in *model.Instance, steps []behavior.ActStep, ctx *runItem) error {
	for i := range steps {
		st := &steps[i]
		switch st.Kind {
		case behavior.ActRun:
			target := st.Target
			if target == nil {
				target = s.static(st.Op)
			}
			s.activate(in, target, st.Delay, ctx)
		case behavior.ActPipe:
			p, info := s.pipes[st.Pipe], unattributed
			if s.obs != nil {
				info = s.pipeOpInfo(st.PipeOp, false)
			}
			if st.Delay == 0 {
				p.Apply(st.PipeOp, st.Stage, info)
				continue
			}
			step, it := s.step+uint64(st.Delay), runItem{pipe: p, stage: st.Stage, pipeOp: st.PipeOp, info: -1}
			if s.obs != nil {
				infos := &s.infos[step%uint64(len(s.wheel))]
				it.info, *infos = int32(len(*infos)), append(*infos, info)
			}
			s.schedule(step, it)
		case behavior.ActIf:
			branch := st.Then
			if !s.x.ActCond(in, st) {
				branch = st.Else
			}
			if err := s.guarded(in, st.Guard(), branch, ctx); err != nil {
				return err
			}
		case behavior.ActSwitch:
			if chosen := s.x.ActChoose(in, st); chosen != nil {
				if err := s.guarded(in, st.Guard(), chosen, ctx); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// guarded processes a branch with its condition on the activation guard
// stack, so stall/flush requests inside attribute to the condition's
// resources. The stack is kept only while an observer is attached.
func (s *Simulator) guarded(in *model.Instance, guard []int, steps []behavior.ActStep, ctx *runItem) error {
	if s.obs == nil {
		return s.processActivation(in, steps, ctx)
	}
	s.actGuards = append(s.actGuards, guard)
	err := s.processActivation(in, steps, ctx)
	s.actGuards = s.actGuards[:len(s.actGuards)-1]
	return err
}

// activate schedules a target instance according to the paper's timing
// rules: delay equals the spatial distance between the activator's stage and
// the target's stage (same pipeline); unassigned activators insert a packet
// at stage 0 of the target's pipeline in the current step; cross-pipeline
// activations latch into stage 0 of the other pipeline for the next step.
// extra adds whole control steps (the ';' delayed-activation operator).
// src is the activator whose ACTIVATION section requested the edge.
func (s *Simulator) activate(src, target *model.Instance, extra int, ctx *runItem) {
	s.prof.Activations++
	top := target.Op
	if s.obs != nil {
		s.obs.OnActivate(src.Op.Index, top.Index, uint64(extra))
	}
	if !top.HasStage() {
		// Unassigned target: same control step (plus explicit delay).
		if extra == 0 {
			s.enqueue(runItem{inst: target})
		} else {
			s.schedule(s.step+uint64(extra), runItem{inst: target})
		}
		return
	}
	q := s.pipes[top.Pipe.Index]
	j := top.StageIdx

	switch {
	case ctx.pipe == nil:
		// Unassigned activator (e.g. main): ride a fresh/merged packet from
		// stage 0 this step.
		e := q.NewEntry(target, j, extra)
		q.InsertFront(e)
		if j == 0 {
			e.MarkExecuted()
			if extra == 0 {
				s.enqueue(runItem{inst: target, pipe: q, stage: 0, packet: q.Slots[0]})
			} else {
				s.schedule(s.step+uint64(extra), runItem{inst: target, pipe: q, stage: 0})
			}
		}
	case s.cur.pipe == q || ctx.pipe == q:
		// Same pipeline: attach to the activator's packet when the target
		// stage is downstream; execute now when at or behind the current
		// stage.
		i := ctx.stage
		if j > i && ctx.packet != nil {
			ctx.packet.Add(q.NewEntry(target, j, extra))
			return
		}
		delay := j - i
		if delay < 0 {
			delay = 0
		}
		delay += extra
		if delay == 0 {
			s.enqueue(runItem{inst: target, pipe: q, stage: j})
		} else {
			s.schedule(s.step+uint64(delay), runItem{inst: target, pipe: q, stage: j})
		}
	default:
		// Cross-pipeline: enter the other pipe's stage 0 next step.
		q.LatchNext(q.NewEntry(target, j, extra))
	}
}

// --- behavior.Context implementation (via wrapper type) -------------------------

// simCtx adapts Simulator to behavior.Context.
type simCtx Simulator

func (c *simCtx) sim() *Simulator { return (*Simulator)(c) }

// PipeOp implements behavior.Context: pipeline built-ins called from
// behavior code apply immediately.
func (c *simCtx) PipeOp(pd *model.Pipeline, stage int, op pipeline.Op) error {
	s := c.sim()
	if pd.Index >= len(s.pipes) || s.pipes[pd.Index].Def != pd {
		return fmt.Errorf("pipeline %s not instantiated", pd.Name)
	}
	info := unattributed
	if s.obs != nil {
		info = s.pipeOpInfo(op, true)
	}
	s.pipes[pd.Index].Apply(op, stage, info)
	return nil
}

// Print implements behavior.Context.
func (c *simCtx) Print(msg string) {
	if c.sim().OnPrint != nil {
		c.sim().OnPrint(msg)
	}
}

// CallOp implements behavior.Context: a direct behavior call executes the
// operation fully (decode for coding roots, behavior, activation) in the
// caller's pipeline context and control step.
func (c *simCtx) CallOp(op *model.Operation) error {
	s := c.sim()
	it := s.cur
	it.inst = s.static(op)
	return s.execute(it)
}

// CallInstance implements behavior.Context for bound group/reference calls.
func (c *simCtx) CallInstance(in *model.Instance) error {
	s := c.sim()
	it := s.cur
	it.inst = in
	return s.execute(it)
}

// --- convenience accessors -------------------------------------------------------

// SetScalar writes a scalar resource by name. It is the external-input
// poke API (co-simulation devices, test benches): with an observer
// attached the write is reported through OnResourceWrite so recorders can
// capture inputs that do not originate from the model's own behavior.
func (s *Simulator) SetScalar(name string, v uint64) error {
	r := s.M.Resource(name)
	if r == nil || r.IsMemory() {
		return fmt.Errorf("no scalar resource %s", name)
	}
	val := bitvec.New(v, r.Width)
	if s.obs != nil {
		s.obs.OnResourceWrite(r.Index, val.Uint())
	}
	s.S.WriteNow(r, val)
	return nil
}

// Scalar reads a scalar resource by name.
func (s *Simulator) Scalar(name string) (bitvec.Value, error) {
	r := s.M.Resource(name)
	if r == nil || r.IsMemory() {
		return bitvec.Value{}, fmt.Errorf("no scalar resource %s", name)
	}
	return s.S.Read(r), nil
}

// SetMem writes one element of a memory resource.
func (s *Simulator) SetMem(name string, addr, v uint64) error {
	r := s.M.Resource(name)
	if r == nil || !r.IsMemory() {
		return fmt.Errorf("no memory resource %s", name)
	}
	return s.S.WriteElem(r, addr, bitvec.New(v, r.Width))
}

// Mem reads one element of a memory resource.
func (s *Simulator) Mem(name string, addr uint64) (bitvec.Value, error) {
	r := s.M.Resource(name)
	if r == nil || !r.IsMemory() {
		return bitvec.Value{}, fmt.Errorf("no memory resource %s", name)
	}
	return s.S.ReadElem(r, addr)
}

// LoadProgram writes words into the named program memory starting at
// origin. An image that does not fit the memory is refused before any
// word is written.
func (s *Simulator) LoadProgram(memName string, origin uint64, words []uint64) error {
	r := s.M.Resource(memName)
	if r == nil || !r.IsMemory() {
		return fmt.Errorf("no memory resource %s", memName)
	}
	if err := r.CheckSpan(origin, len(words)); err != nil {
		return err
	}
	for i, w := range words {
		if err := s.S.WriteElem(r, origin+uint64(i), bitvec.New(w, r.Width)); err != nil {
			return err
		}
	}
	return nil
}

// Pipes exposes the runtime pipelines (for tracing and tests).
func (s *Simulator) Pipes() []*pipeline.Pipe { return s.pipes }
