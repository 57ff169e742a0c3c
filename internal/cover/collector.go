package cover

import (
	"sync"

	"golisa/internal/model"
	"golisa/internal/trace"
)

// memoCap bounds the decoded-instance memo: compiled modes reuse cached
// instances (so the memo converges), but interpretive decodes mint a
// fresh instance per word, and an unbounded memo would grow with the
// run instead of the model.
const memoCap = 4096

// Collector is a trace.Observer accumulating model coverage: executed
// operations, activation edges (source, target) and hazard causes come
// from the observer events; decode coverage comes through
// sim.Simulator.OnDecoded (the OnDecode event cannot carry the selected
// leaves).
//
// Every event costs one lookup in the map's id-indexed bit tables plus
// one bit-set. OnAttach resets the bits, so re-attaching (a replay seek,
// a fresh run) starts a fresh measurement. A Collector is not safe for
// concurrent use; fleet runs give each job its own and merge the
// snapshots.
type Collector struct {
	trace.Nop
	cm   *Map
	bits [NumDomains]Bitset
	memo map[*model.Instance]struct{}

	// mu guards Snapshot against a live /coverage reader only; the
	// simulator's event path never contends with itself.
	mu sync.Mutex
}

// NewCollector creates a collector over the map.
func NewCollector(cm *Map) *Collector {
	c := &Collector{cm: cm, memo: make(map[*model.Instance]struct{})}
	for d := 0; d < NumDomains; d++ {
		c.bits[d] = NewBitset(len(cm.Items[d]))
	}
	return c
}

// Map returns the enumeration the collector indexes into.
func (c *Collector) Map() *Map { return c.cm }

// OnAttach implements trace.Observer: attaching starts a fresh run, so
// all coverage state resets.
func (c *Collector) OnAttach(*trace.Topology) {
	c.mu.Lock()
	for d := 0; d < NumDomains; d++ {
		c.bits[d].Clear()
	}
	c.memo = make(map[*model.Instance]struct{})
	c.mu.Unlock()
}

// OnExec implements trace.Observer: one executed-operation bit.
func (c *Collector) OnExec(op, pipe, stage int, packet uint64) {
	if op >= 0 && op < len(c.cm.opBit) {
		c.bits[DomainOps].Set(int(c.cm.opBit[op]))
	}
}

// OnActivate implements trace.Observer: one activation-edge bit.
func (c *Collector) OnActivate(source, target int, delay uint64) {
	if n := len(c.cm.opBit); source >= 0 && source < n && target >= 0 && target < n {
		c.bits[DomainEdges].Set(int(c.cm.edgeBit[source*n+target]))
	}
}

// OnStall implements trace.Observer: one hazard-cause bit.
func (c *Collector) OnStall(info trace.StallInfo) { c.cause(info.Cause) }

// OnFlush implements trace.Observer.
func (c *Collector) OnFlush(info trace.StallInfo) { c.cause(info.Cause) }

// cause sets a hazard-cause bit: the causes domain lists trace.Causes
// in order, from CauseData.
func (c *Collector) cause(cause trace.Cause) {
	if cause != trace.CauseNone && cause < trace.NumCauses {
		c.bits[DomainCauses].Set(int(cause - trace.CauseData))
	}
}

// MarkDecoded records every operation of a decoded instance tree as a
// covered coding leaf. Wire it to sim.Simulator.OnDecoded. Cached
// instances are memoized by pointer so the steady state of a compiled
// run marks nothing.
func (c *Collector) MarkDecoded(in *model.Instance) {
	if _, ok := c.memo[in]; ok {
		return
	}
	if len(c.memo) < memoCap {
		c.memo[in] = struct{}{}
	}
	c.markTree(in)
}

func (c *Collector) markTree(in *model.Instance) {
	if in.Op.Index < len(c.cm.leafBit) {
		c.bits[DomainLeaves].Set(int(c.cm.leafBit[in.Op.Index]))
	}
	for _, child := range in.Bindings {
		c.markTree(child)
	}
}

// Snapshot copies the current coverage state. Safe to call from another
// goroutine only when the simulator is quiescent at a step boundary
// (the debug server's ctrl.Do seam); the internal lock orders Snapshot
// against OnAttach resets, not against the unsynchronized event path.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{
		Model:       c.cm.Model,
		Fingerprint: FingerprintString(c.cm.Fingerprint),
	}
	for d := 0; d < NumDomains; d++ {
		s.Domains = append(s.Domains, DomainSnap{
			Name:    DomainNames[d],
			Total:   len(c.cm.Items[d]),
			Covered: c.bits[d].Count(),
			Bits:    c.bits[d].Clone(),
		})
	}
	return s
}
