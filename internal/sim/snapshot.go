package sim

import (
	"fmt"
	"hash/fnv"
	"sort"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// This file implements full-simulator checkpointing: Snapshot captures
// everything the next control step depends on — architectural state,
// pipeline packets (including latched cross-pipeline insertions), the
// delayed-activation time wheel and the profile counters — as a plain
// value tree with no pointers into the live simulator. Restore rebuilds a
// simulator from such a snapshot so that re-executing from it is
// cycle-for-cycle identical to the original run (the record/replay layer
// in internal/replay and the time-travel debugger in internal/debug are
// built on this pair).
//
// Snapshots must be taken at a control-step boundary (before RunStep has
// begun a step, or from an observer's OnStepBegin hook): at that point the
// latch-write buffers are empty and the per-step stall/shift marks are
// clear, so neither needs to be captured.

// LabelSnap is one decoded operand field of an instance.
type LabelSnap struct {
	Name  string
	Value uint64
	Width int
}

// BindSnap is one group/reference binding of an instance.
type BindSnap struct {
	Name string
	Inst *InstSnap
}

// InstSnap serializes a bound operation instance as a value tree.
// Instances are immutable after binding, so value copies are
// interchangeable with the originals.
type InstSnap struct {
	Op       string
	Labels   []LabelSnap // sorted by name
	Bindings []BindSnap  // sorted by name
}

// EntrySnap is one pipeline-packet entry.
type EntrySnap struct {
	Inst     *InstSnap
	Stage    int
	Extra    int
	Executed bool
}

// PacketSnap is one pipeline packet.
type PacketSnap struct {
	ID      uint64
	Entries []EntrySnap
}

// PipeSnap is the runtime state of one pipeline.
type PipeSnap struct {
	Slots []*PacketSnap // one per stage; nil = empty
	Latch *PacketSnap   // pending stage-0 insertion, or nil

	Shifts, Stalls, Flushes, Retires, RetiredEntries uint64
}

// WheelItemSnap is one delayed activation. Either Inst is non-nil (an
// operation execution, with Pipe/Stage giving its pipeline context, Pipe
// -1 when unassigned) or PipeOp names a deferred pipeline operation.
type WheelItemSnap struct {
	Inst  *InstSnap
	Pipe  int // -1 = no pipeline context
	Stage int

	PipeOp      string // "shift", "stall", "flush"; "" = instance item
	PipeOpPipe  int
	PipeOpStage int
}

// WheelSnap holds the items scheduled for one future control step.
type WheelSnap struct {
	Step  uint64
	Items []WheelItemSnap
}

// Snapshot is a complete, self-contained checkpoint of a simulator at a
// control-step boundary.
type Snapshot struct {
	Model string
	Step  uint64

	Scalars []uint64   // by state slot
	Arrays  [][]uint64 // by state slot

	Pipes []PipeSnap
	Wheel []WheelSnap // ascending by step

	// Profile counters (Execs keyed by operation name). Not part of the
	// state hash: they describe work done, not machine state.
	Steps       uint64
	Decodes     uint64
	DecodeHits  uint64
	Activations uint64
	Retired     uint64
	Execs       map[string]uint64
}

// Snapshot captures the simulator at the current control-step boundary.
func (s *Simulator) Snapshot() *Snapshot {
	snap := &Snapshot{
		Model:       s.M.Name,
		Step:        s.step,
		Steps:       s.prof.Steps,
		Decodes:     s.prof.Decodes,
		DecodeHits:  s.prof.DecodeHits,
		Activations: s.prof.Activations,
		Retired:     s.prof.Retired,
		Execs:       s.execCounts(),
	}
	snap.Scalars = make([]uint64, len(s.S.Scalars))
	for i, v := range s.S.Scalars {
		snap.Scalars[i] = v.Uint()
	}
	snap.Arrays = make([][]uint64, len(s.S.Arrays))
	for i, a := range s.S.Arrays {
		row := make([]uint64, len(a))
		for j, v := range a {
			row[j] = v.Uint()
		}
		snap.Arrays[i] = row
	}
	for _, p := range s.pipes {
		ps := PipeSnap{
			Shifts: p.Shifts, Stalls: p.Stalls, Flushes: p.Flushes,
			Retires: p.Retires, RetiredEntries: p.RetiredEntries,
		}
		for _, pkt := range p.Slots {
			ps.Slots = append(ps.Slots, snapPacket(pkt))
		}
		ps.Latch = snapPacket(p.Latch())
		snap.Pipes = append(snap.Pipes, ps)
	}
	// Pending items all fall within one ring span from the current step.
	n := uint64(len(s.wheel))
	for st := s.step; st < s.step+n; st++ {
		due := s.wheel[st%n]
		if len(due) == 0 {
			continue
		}
		ws := WheelSnap{Step: st}
		for _, it := range due {
			ws.Items = append(ws.Items, snapWheelItem(it))
		}
		snap.Wheel = append(snap.Wheel, ws)
	}
	return snap
}

func snapPacket(pkt *pipeline.Packet) *PacketSnap {
	if pkt == nil {
		return nil
	}
	ps := &PacketSnap{ID: pkt.ID}
	for _, e := range pkt.Entries {
		ps.Entries = append(ps.Entries, EntrySnap{
			Inst: snapInst(e.Inst), Stage: e.StageIdx, Extra: e.Extra, Executed: e.Executed(),
		})
	}
	return ps
}

func snapWheelItem(it runItem) WheelItemSnap {
	if it.pipeOp != 0 {
		return WheelItemSnap{
			Pipe: -1, PipeOp: it.pipeOp.String(),
			PipeOpPipe: it.pipe.Def.Index, PipeOpStage: it.stage,
		}
	}
	w := WheelItemSnap{Inst: snapInst(it.inst), Pipe: -1, Stage: it.stage}
	if it.pipe != nil {
		w.Pipe = it.pipe.Def.Index
	}
	return w
}

func snapInst(in *model.Instance) *InstSnap {
	is := &InstSnap{Op: in.Op.Name}
	if len(in.Labels) > 0 {
		for name, v := range in.Labels {
			is.Labels = append(is.Labels, LabelSnap{Name: name, Value: v.Uint(), Width: v.Width()})
		}
		sort.Slice(is.Labels, func(i, j int) bool { return is.Labels[i].Name < is.Labels[j].Name })
	}
	if len(in.Bindings) > 0 {
		for name, child := range in.Bindings {
			is.Bindings = append(is.Bindings, BindSnap{Name: name, Inst: snapInst(child)})
		}
		sort.Slice(is.Bindings, func(i, j int) bool { return is.Bindings[i].Name < is.Bindings[j].Name })
	}
	return is
}

// Restore rebuilds the simulator from a snapshot taken on a simulator of
// the same model. The decode cache and compiled-behavior caches survive
// (they are keyed by immutable values), so restoring is cheap to repeat.
func (s *Simulator) Restore(snap *Snapshot) error {
	if snap.Model != s.M.Name {
		return fmt.Errorf("snapshot of model %q cannot restore into %q", snap.Model, s.M.Name)
	}
	if len(snap.Scalars) != len(s.S.Scalars) || len(snap.Arrays) != len(s.S.Arrays) {
		return fmt.Errorf("snapshot shape mismatch: %d/%d scalars, %d/%d arrays",
			len(snap.Scalars), len(s.S.Scalars), len(snap.Arrays), len(s.S.Arrays))
	}
	if len(snap.Pipes) != len(s.pipes) {
		return fmt.Errorf("snapshot has %d pipelines, model has %d", len(snap.Pipes), len(s.pipes))
	}
	// Architectural state. Widths come from the model's slot assignment.
	for _, r := range s.M.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			row := snap.Arrays[r.Slot]
			if uint64(len(row)) != r.Total() {
				return fmt.Errorf("snapshot memory %s has %d elements, model has %d", r.Name, len(row), r.Total())
			}
			s.S.SetMemory(r, row)
		} else {
			s.S.Scalars[r.Slot] = bitvec.New(snap.Scalars[r.Slot], r.Width)
		}
	}
	// Pipelines.
	var maxPkt uint64
	for i, ps := range snap.Pipes {
		p := s.pipes[i]
		if len(ps.Slots) != len(p.Slots) {
			return fmt.Errorf("snapshot pipe %d has %d stages, model has %d", i, len(ps.Slots), len(p.Slots))
		}
		p.Reset()
		for st, pkt := range ps.Slots {
			rebuilt, err := s.restorePacket(pkt, &maxPkt)
			if err != nil {
				return err
			}
			p.Slots[st] = rebuilt
		}
		latch, err := s.restorePacket(ps.Latch, &maxPkt)
		if err != nil {
			return err
		}
		p.SetLatch(latch)
		p.Shifts, p.Stalls, p.Flushes = ps.Shifts, ps.Stalls, ps.Flushes
		p.Retires, p.RetiredEntries = ps.Retires, ps.RetiredEntries
	}
	pipeline.EnsurePacketSeq(maxPkt)
	// Run position and time wheel.
	s.step = snap.Step
	s.clearWheel()
	for _, ws := range snap.Wheel {
		if ws.Step < snap.Step || ws.Step-snap.Step >= uint64(len(s.wheel)) {
			return fmt.Errorf("snapshot at step %d has activations due at step %d, beyond the model's delays", snap.Step, ws.Step)
		}
		for _, w := range ws.Items {
			it, err := s.restoreWheelItem(w)
			if err != nil {
				return err
			}
			s.addDelayed(ws.Step, it)
		}
	}
	// Counters.
	s.runQ = s.runQ[:0]
	s.runHead = 0
	s.prof = Profile{
		Steps: snap.Steps, Decodes: snap.Decodes, DecodeHits: snap.DecodeHits,
		Activations: snap.Activations, Retired: snap.Retired,
	}
	clear(s.execs)
	for name, n := range snap.Execs {
		if op, ok := s.M.Ops[name]; ok {
			s.execs[op.Index] = n
		}
	}
	return nil
}

func (s *Simulator) restorePacket(ps *PacketSnap, maxPkt *uint64) (*pipeline.Packet, error) {
	if ps == nil {
		return nil, nil
	}
	if ps.ID > *maxPkt {
		*maxPkt = ps.ID
	}
	pkt := pipeline.NewPacketWithID(ps.ID)
	for _, es := range ps.Entries {
		in, err := s.restoreInst(es.Inst)
		if err != nil {
			return nil, err
		}
		e := &pipeline.Entry{Inst: in, StageIdx: es.Stage, Extra: es.Extra}
		if es.Executed {
			e.MarkExecuted()
		}
		pkt.Add(e)
	}
	return pkt, nil
}

func (s *Simulator) restoreWheelItem(w WheelItemSnap) (runItem, error) {
	if w.PipeOp != "" {
		if w.PipeOpPipe < 0 || w.PipeOpPipe >= len(s.pipes) {
			return runItem{}, fmt.Errorf("snapshot pipe-op on unknown pipeline %d", w.PipeOpPipe)
		}
		op, ok := pipeline.ParseOp(w.PipeOp)
		if !ok {
			return runItem{}, fmt.Errorf("snapshot has unknown pipe-op %q", w.PipeOp)
		}
		return runItem{pipe: s.pipes[w.PipeOpPipe], stage: w.PipeOpStage, pipeOp: op, info: -1}, nil
	}
	in, err := s.restoreInst(w.Inst)
	if err != nil {
		return runItem{}, err
	}
	it := runItem{inst: in, stage: w.Stage}
	if w.Pipe >= 0 {
		if w.Pipe >= len(s.pipes) {
			return runItem{}, fmt.Errorf("snapshot wheel item on unknown pipeline %d", w.Pipe)
		}
		it.pipe = s.pipes[w.Pipe]
	}
	return it, nil
}

// restoreInst rebuilds an instance tree. Unbound instances (no labels, no
// bindings) reuse the shared static instance so the compiled-behavior
// cache keeps working across restores.
//
// A snapshot is outside input, and the engines read an instance's labels
// and operands without checking for them, so a tree must be one decoding
// could have built: an operation whose code reads labels or operands runs
// unbound only as a coding root (which the simulator decodes), and a bound
// instance carries every label and operand its variant's CODING binds,
// each operand an operation that CODING allows there.
func (s *Simulator) restoreInst(is *InstSnap) (*model.Instance, error) {
	if is == nil {
		return nil, fmt.Errorf("snapshot entry without instance")
	}
	op, ok := s.M.Ops[is.Op]
	if !ok {
		return nil, fmt.Errorf("snapshot references unknown operation %q", is.Op)
	}
	if len(is.Labels) == 0 && len(is.Bindings) == 0 {
		if op.ReadsOperands && !op.IsCodingRoot {
			return nil, fmt.Errorf("snapshot instance of %s lacks its labels and operands", op.Name)
		}
		return s.static(op), nil
	}
	in := model.NewInstance(op)
	for _, l := range is.Labels {
		in.Labels[l.Name] = bitvec.New(l.Value, l.Width)
	}
	for _, b := range is.Bindings {
		child, err := s.restoreInst(b.Inst)
		if err != nil {
			return nil, err
		}
		in.Bindings[b.Name] = child
	}
	if err := in.ResolveVariant(); err != nil {
		return nil, fmt.Errorf("snapshot instance: %w", err)
	}
	if in.Variant.Coding == nil {
		return in, nil
	}
	for _, e := range in.Variant.Coding.Elems {
		switch el := e.(type) {
		case *ast.CodingField:
			if _, ok := in.Labels[el.Label]; !ok {
				return nil, fmt.Errorf("snapshot instance of %s lacks label %s", op.Name, el.Label)
			}
		case *ast.CodingRef:
			child := in.Bindings[el.Name]
			g := op.Groups[el.Name]
			if child == nil || g == nil && child.Op != s.M.Ops[el.Name] || g != nil && g.MemberIndex(child.Op) < 0 {
				return nil, fmt.Errorf("snapshot instance of %s does not bind operand %s to an operation its CODING allows", op.Name, el.Name)
			}
		}
	}
	return in, nil
}

// Hash returns a 64-bit FNV-1a digest of the machine-visible simulation
// state: step, registers, memories, pipeline packets (operations, stages,
// execution marks) and the time wheel. Packet ids and profile counters
// are excluded — they are tracing artifacts, not machine state — so a
// replayed run hashes identically to the original.
func (sn *Snapshot) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		_, _ = h.Write(buf[:])
	}
	str := func(s string) {
		u(uint64(len(s)))
		_, _ = h.Write([]byte(s))
	}
	var hashInst func(is *InstSnap)
	hashInst = func(is *InstSnap) {
		str(is.Op)
		u(uint64(len(is.Labels)))
		for _, l := range is.Labels {
			str(l.Name)
			u(l.Value)
			u(uint64(l.Width))
		}
		u(uint64(len(is.Bindings)))
		for _, b := range is.Bindings {
			str(b.Name)
			hashInst(b.Inst)
		}
	}
	pkt := func(p *PacketSnap) {
		if p == nil {
			u(0)
			return
		}
		u(1)
		u(uint64(len(p.Entries)))
		for _, e := range p.Entries {
			hashInst(e.Inst)
			u(uint64(e.Stage))
			u(uint64(e.Extra))
			if e.Executed {
				u(1)
			} else {
				u(0)
			}
		}
	}
	u(sn.Step)
	u(uint64(len(sn.Scalars)))
	for _, v := range sn.Scalars {
		u(v)
	}
	u(uint64(len(sn.Arrays)))
	for _, row := range sn.Arrays {
		u(uint64(len(row)))
		for _, v := range row {
			u(v)
		}
	}
	u(uint64(len(sn.Pipes)))
	for _, ps := range sn.Pipes {
		u(uint64(len(ps.Slots)))
		for _, p := range ps.Slots {
			pkt(p)
		}
		pkt(ps.Latch)
	}
	u(uint64(len(sn.Wheel)))
	for _, ws := range sn.Wheel {
		u(ws.Step)
		u(uint64(len(ws.Items)))
		for _, w := range ws.Items {
			if w.PipeOp != "" {
				str(w.PipeOp)
				u(uint64(w.PipeOpPipe))
				u(uint64(int64(w.PipeOpStage)))
				continue
			}
			hashInst(w.Inst)
			u(uint64(int64(w.Pipe)))
			u(uint64(w.Stage))
		}
	}
	return h.Sum64()
}

// StateHash is shorthand for Snapshot().Hash() at the current boundary.
func (s *Simulator) StateHash() uint64 { return s.Snapshot().Hash() }
