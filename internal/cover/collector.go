package cover

import (
	"golisa/internal/model"
	"golisa/internal/trace"
)

// memoCap bounds the decoded-instance memo: compiled modes reuse cached
// instances (so the memo converges), but interpretive decodes mint a
// fresh instance per word, and an unbounded memo would grow with the
// run instead of the model.
const memoCap = 4096

// Collector exports a trace.Counters as model coverage: executed
// operations, activation edges (source, target) and hazard causes are
// read from the counts; decode coverage comes through
// sim.Simulator.OnDecoded (the OnDecode event cannot carry the selected
// leaves), wired to MarkDecoded, which marks the Counters too.
//
// Attached alone it counts into its own Counters, sized for the map's
// model at construction; in a trace.Fanout it shares one. OnAttach
// starts the counts afresh, so re-attaching (a replay seek, a fresh run)
// starts a fresh measurement. A Collector is not safe for concurrent
// use; fleet runs give each job its own and merge the snapshots.
type Collector struct {
	*trace.Counters
	cm *Map

	// memo holds the instance trees whose operations the Counters'
	// Decoded bits hold: those marked since their attach count was memoAt.
	memo   map[*model.Instance]struct{}
	memoAt uint64
}

// NewCollector creates a collector over the map.
func NewCollector(cm *Map) *Collector {
	c := &Collector{Counters: trace.NewCounters(), cm: cm, memo: make(map[*model.Instance]struct{})}
	c.OnAttach(&trace.Topology{Model: cm.Model, Ops: make([]string, len(cm.opBit))})
	return c
}

// Share implements trace.Sink.
func (c *Collector) Share(k *trace.Counters) trace.Observer {
	c.Counters = k
	clear(c.memo)
	c.memoAt = k.Attaches
	return nil
}

// Map returns the enumeration the collector indexes into.
func (c *Collector) Map() *Map { return c.cm }

// MarkDecoded marks every operation of a decoded instance tree as a
// covered coding leaf. Wire it to sim.Simulator.OnDecoded. Cached
// instances are memoized by pointer so the steady state of a compiled
// run marks nothing; the memo starts afresh with the counts.
func (c *Collector) MarkDecoded(in *model.Instance) {
	if c.memoAt != c.Attaches {
		clear(c.memo)
		c.memoAt = c.Attaches
	}
	if _, ok := c.memo[in]; ok {
		return
	}
	if len(c.memo) < memoCap {
		c.memo[in] = struct{}{}
	}
	c.markTree(in)
}

func (c *Collector) markTree(in *model.Instance) {
	c.Counters.MarkDecoded(in.Op.Index)
	for _, child := range in.Bindings {
		c.markTree(child)
	}
}

// Snapshot builds the coverage bits from the current counts. Call it on
// the simulation goroutine, or while the simulator is quiescent at a step
// boundary (the debug server's ctrl.Do seam).
func (c *Collector) Snapshot() *Snapshot {
	cm, k := c.cm, c.Counters
	var bits [NumDomains]Bitset
	for d := range bits {
		bits[d] = NewBitset(len(cm.Items[d]))
	}
	for op := range min(len(k.Ops), len(cm.opBit)) {
		if k.Ops[op].Execs > 0 {
			bits[DomainOps].Set(int(cm.opBit[op]))
		}
		if k.Decoded[op] {
			bits[DomainLeaves].Set(int(cm.leafBit[op]))
		}
	}
	if len(k.Ops) == len(cm.opBit) {
		for i, at := range cm.edgeAt {
			if k.Edges[at] {
				bits[DomainEdges].Set(i)
			}
		}
	}
	for i, cause := range trace.Causes {
		if k.StallEvents[cause]+k.FlushEvents[cause] > 0 {
			bits[DomainCauses].Set(i)
		}
	}
	s := &Snapshot{
		Model:       cm.Model,
		Fingerprint: FingerprintString(cm.Fingerprint),
	}
	for d := 0; d < NumDomains; d++ {
		s.Domains = append(s.Domains, DomainSnap{
			Name:    DomainNames[d],
			Total:   len(cm.Items[d]),
			Covered: bits[d].Count(),
			Bits:    bits[d],
		})
	}
	return s
}
