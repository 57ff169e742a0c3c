// Package pipeline implements LISA's generic pipeline model (paper §3.2.4):
// operations are assigned to pipeline stages, activations ride the pipeline
// as packets, and the built-in pipeline operations shift, stall and flush
// move, hold and clear those packets.
//
// Timing semantics: an activated operation executes when the packet carrying
// it sits in the operation's assigned stage; the activation delay therefore
// equals the spatial distance between activator and target, exactly as the
// paper specifies. Delayed activation (';') adds whole control steps on top
// and is handled by the simulator's time wheel.
package pipeline

import (
	"slices"
	"sync/atomic"

	"golisa/internal/model"
	"golisa/internal/trace"
)

// Entry is one scheduled operation instance riding a packet.
type Entry struct {
	Inst     *model.Instance
	StageIdx int // stage at which the instance executes
	Extra    int // extra control steps from delayed activation (';')

	executed bool
}

// Executed reports whether the entry has already been dispatched.
func (e *Entry) Executed() bool { return e.executed }

// MarkExecuted marks the entry dispatched so it does not re-execute while
// its stage is stalled.
func (e *Entry) MarkExecuted() { e.executed = true }

// packetSeq issues process-unique packet ids so trace observers can follow
// one packet across stages and pipelines (id 0 means "no packet").
var packetSeq atomic.Uint64

// Packet is a group of entries that advance through the pipeline together —
// the activations belonging to one instruction (or one fetch packet).
type Packet struct {
	Entries []*Entry

	// ID uniquely identifies the packet for tracing (flow events).
	ID uint64
}

// NewPacketWithID allocates a packet carrying a specific trace id; the
// checkpoint-restore path uses it to rebuild recorded packets. Call
// EnsurePacketSeq afterwards so freshly allocated ids do not collide.
func NewPacketWithID(id uint64) *Packet { return &Packet{ID: id} }

// EnsurePacketSeq raises the packet id sequence to at least min, so
// packets created after a checkpoint restore get ids beyond any restored
// one.
func EnsurePacketSeq(min uint64) {
	for {
		cur := packetSeq.Load()
		if cur >= min || packetSeq.CompareAndSwap(cur, min) {
			return
		}
	}
}

// Add appends an entry to the packet.
func (p *Packet) Add(e *Entry) { p.Entries = append(p.Entries, e) }

// Pipe is the runtime state of one pipeline: one packet slot per stage.
type Pipe struct {
	Def   *model.Pipeline
	Slots []*Packet

	latch    *Packet // inserted into stage 0 at the next BeginStep
	stalled  []bool
	shiftReq bool

	// Free lists of recycled entries and packets, and the packets retired
	// or flushed this step. Those are recycled only at the next BeginStep:
	// work queued earlier in the step may still name a flushed packet.
	freeE []*Entry
	freeP []*Packet
	dead  []*Packet

	// Stats for the profiler / VCD tracer.
	Shifts         uint64
	Stalls         uint64
	Flushes        uint64
	Retires        uint64 // packets retired from the last stage
	RetiredEntries uint64 // entries carried by retired packets

	// Obs, when non-nil, receives stall/flush/shift/retire events. The
	// nil check is the only cost when no observer is attached.
	Obs trace.Observer
}

// New creates the runtime pipe for a declared pipeline.
func New(def *model.Pipeline) *Pipe {
	return &Pipe{
		Def:     def,
		Slots:   make([]*Packet, def.Depth()),
		stalled: make([]bool, def.Depth()),
	}
}

// Op is a pipeline built-in operation; the zero Op is none.
type Op uint8

// The pipeline built-ins of paper §3.2.4.
const (
	Shift Op = iota + 1
	Stall
	Flush
)

var opNames = [...]string{Shift: "shift", Stall: "stall", Flush: "flush"}

// String returns the operation's LISA spelling ("" for none).
func (o Op) String() string { return opNames[o] }

// ParseOp resolves "shift", "stall" or "flush".
func ParseOp(name string) (Op, bool) {
	i := slices.Index(opNames[Shift:], name) + int(Shift)
	return Op(i), i >= int(Shift)
}

// Apply performs op on the given stage (-1: the whole pipeline); info is
// the hazard attribution a stall or flush carries.
func (p *Pipe) Apply(op Op, stage int, info trace.StallInfo) {
	switch op {
	case Shift:
		p.RequestShift()
	case Stall:
		p.Stall(stage, info)
	case Flush:
		p.Flush(stage, info)
	}
}

// slab is how many entries or packets a free list grows by at once.
const slab = 32

// NewEntry returns a recycled (or new) entry scheduling in at stage.
func (p *Pipe) NewEntry(in *model.Instance, stage, extra int) *Entry {
	if len(p.freeE) == 0 {
		es := make([]Entry, slab)
		for i := range es {
			p.freeE = append(p.freeE, &es[i])
		}
	}
	e := p.freeE[len(p.freeE)-1]
	p.freeE = p.freeE[:len(p.freeE)-1]
	*e = Entry{Inst: in, StageIdx: stage, Extra: extra}
	return e
}

// newPacket returns a recycled (or new) empty packet with a fresh trace id.
func (p *Pipe) newPacket() *Packet {
	if len(p.freeP) == 0 {
		const room = 8 // entries per packet before its slice grows
		ps, es := make([]Packet, slab), make([]*Entry, slab*room)
		for i := range ps {
			ps[i].Entries = es[i*room : i*room : (i+1)*room]
			p.freeP = append(p.freeP, &ps[i])
		}
	}
	pkt := p.freeP[len(p.freeP)-1]
	p.freeP = p.freeP[:len(p.freeP)-1]
	pkt.ID = packetSeq.Add(1)
	return pkt
}

// recycle returns the dead packets and their entries to the free lists.
func (p *Pipe) recycle() {
	for _, pkt := range p.dead {
		if pkt != nil {
			p.freeE = append(p.freeE, pkt.Entries...)
			pkt.Entries = pkt.Entries[:0]
			p.freeP = append(p.freeP, pkt)
		}
	}
	p.dead = p.dead[:0]
}

// Reset clears all packets, latches, requests and statistics counters.
func (p *Pipe) Reset() {
	p.dead = append(append(p.dead, p.Slots...), p.latch)
	p.recycle()
	clear(p.Slots)
	clear(p.stalled)
	p.latch = nil
	p.shiftReq = false
	p.Shifts, p.Stalls, p.Flushes = 0, 0, 0
	p.Retires, p.RetiredEntries = 0, 0
}

// Latch returns the packet queued for stage-0 insertion at the next
// BeginStep, or nil (checkpointing).
func (p *Pipe) Latch() *Packet { return p.latch }

// SetLatch replaces the queued stage-0 insertion (checkpoint restore).
func (p *Pipe) SetLatch(pkt *Packet) { p.latch = pkt }

// InsertFront merges entries into the stage-0 packet for the current control
// step (used when an unassigned operation such as main activates
// stage-assigned operations: the stage-0 ops execute in the same step).
func (p *Pipe) InsertFront(entries ...*Entry) *Packet {
	if p.Slots[0] == nil {
		p.Slots[0] = p.newPacket()
	}
	for _, e := range entries {
		p.Slots[0].Add(e)
	}
	return p.Slots[0]
}

// LatchNext queues entries for insertion into stage 0 at the start of the
// next control step (cross-pipeline activation).
func (p *Pipe) LatchNext(entries ...*Entry) {
	if p.latch == nil {
		p.latch = p.newPacket()
	}
	for _, e := range entries {
		p.latch.Add(e)
	}
}

// BeginStep recycles the packets that left the pipeline in the previous
// step and applies the pending latch into stage 0 (merging with an
// occupying packet if the pipeline did not shift).
func (p *Pipe) BeginStep() {
	p.recycle()
	if p.latch == nil {
		return
	}
	if p.Slots[0] == nil {
		p.Slots[0] = p.latch
	} else {
		p.Slots[0].Entries = append(p.Slots[0].Entries, p.latch.Entries...)
		p.latch.Entries = p.latch.Entries[:0]
		p.dead = append(p.dead, p.latch)
	}
	p.latch = nil
}

// ReadyEntry pairs an unexecuted entry with the packet and stage where it is
// ready to run this control step.
type ReadyEntry struct {
	Entry  *Entry
	Packet *Packet
	Stage  int
}

// Ready returns, in stage-ascending order, all unexecuted entries whose
// assigned stage matches the stage their packet currently occupies. Entries
// in a stalled stage are withheld: a stalled stage does no work, and its
// operations fire in the first cycle the stall is released.
func (p *Pipe) Ready() []ReadyEntry { return p.ReadyAppend(nil) }

// ReadyAppend appends the ready entries to buf (the simulator reuses one
// buffer across control steps to avoid per-cycle allocation).
func (p *Pipe) ReadyAppend(buf []ReadyEntry) []ReadyEntry {
	for s, pkt := range p.Slots {
		if pkt == nil || p.stalled[s] {
			continue
		}
		for _, e := range pkt.Entries {
			if !e.executed && e.StageIdx == s {
				buf = append(buf, ReadyEntry{Entry: e, Packet: pkt, Stage: s})
			}
		}
	}
	return buf
}

// RequestShift asks for one stage advance at EndStep.
func (p *Pipe) RequestShift() { p.shiftReq = true }

// Stall holds the given stage for the current step; stage -1 stalls the
// whole pipeline. info carries the request's hazard attribution for the
// observer; its pipe/stage fields are overwritten.
func (p *Pipe) Stall(stage int, info trace.StallInfo) {
	p.Stalls++
	if p.Obs != nil {
		info.Pipe, info.Stage = p.Def.Index, stage
		p.Obs.OnStall(info)
	}
	if stage < 0 {
		for i := range p.stalled {
			p.stalled[i] = true
		}
		return
	}
	if stage < len(p.stalled) {
		p.stalled[stage] = true
	}
}

// Stalled reports whether the stage is held this step.
func (p *Pipe) Stalled(stage int) bool {
	return stage >= 0 && stage < len(p.stalled) && p.stalled[stage]
}

// Flush clears the packet in the given stage immediately; stage -1 clears
// the whole pipeline. info is as for Stall.
func (p *Pipe) Flush(stage int, info trace.StallInfo) {
	p.Flushes++
	if p.Obs != nil {
		info.Pipe, info.Stage = p.Def.Index, stage
		p.Obs.OnFlush(info)
	}
	for i := range p.Slots {
		if (stage < 0 || i == stage) && p.Slots[i] != nil {
			p.dead = append(p.dead, p.Slots[i])
			p.Slots[i] = nil
		}
	}
}

// EndStep performs the requested shift (respecting stalls and occupancy
// back-pressure: a packet moves only into a slot that is empty after the
// downstream stages have moved) and clears per-step stall marks. It returns
// the packet that retired from the last stage, if any; it stays valid until
// the next BeginStep recycles it.
func (p *Pipe) EndStep() *Packet {
	var retired *Packet
	if p.shiftReq {
		p.Shifts++
		if p.Obs != nil {
			p.Obs.OnShift(p.Def.Index)
		}
		last := len(p.Slots) - 1
		if p.Slots[last] != nil && !p.stalled[last] {
			retired = p.Slots[last]
			p.Slots[last] = nil
		}
		for s := last - 1; s >= 0; s-- {
			if p.Slots[s] == nil || p.stalled[s] {
				continue
			}
			if p.Slots[s+1] == nil {
				p.Slots[s+1] = p.Slots[s]
				p.Slots[s] = nil
			}
		}
	}
	for i := range p.stalled {
		p.stalled[i] = false
	}
	p.shiftReq = false
	if retired != nil {
		p.dead = append(p.dead, retired)
		p.Retires++
		p.RetiredEntries += uint64(len(retired.Entries))
		if p.Obs != nil {
			p.Obs.OnRetire(p.Def.Index, len(p.Slots)-1, retired.ID, len(retired.Entries))
		}
	}
	return retired
}

// Occupancy returns, per stage, whether a packet is present (for tracing).
func (p *Pipe) Occupancy() []bool { return p.OccupancyAppend(nil) }

// OccupancyAppend appends per-stage occupancy to buf (the simulator reuses
// one buffer across control steps to avoid per-cycle allocation).
func (p *Pipe) OccupancyAppend(buf []bool) []bool {
	for _, pkt := range p.Slots {
		buf = append(buf, pkt != nil)
	}
	return buf
}
