// Package trace is the structured observability layer of the golisa
// simulators. The simulator, the pipeline model and the behavior engine
// emit events into an Observer behind a nil-check fast path, so an
// uninstrumented simulation pays only a pointer comparison per hook site.
//
// Concrete observers shipped here:
//
//   - Counters: the one observer that counts events, into dense tables
//     every counting sink exports (see Sink and Fanout).
//   - Metrics: per-stage pipeline counters (occupancy, stall cycles,
//     flushes, retire throughput) and per-operation execution/cycle
//     attribution, exported from a Counters as Prometheus-exposition-style
//     text or JSON.
//   - ChromeTracer: a Chrome trace-event (chrome://tracing / Perfetto)
//     exporter rendering each pipeline stage as a track and each
//     instruction packet as a flow.
//   - Flight: a ring-buffer flight recorder keeping the last N events for
//     post-mortem dumps on simulator errors.
//
// Event payloads are dense ids and words, never names: operations are
// keyed by model.Operation.Index, resources by their position in
// Model.Resources, and -1 means none. OnAttach delivers the name tables
// once, so Counters counts into slices sized at attach and only the
// exporters turn ids back into names. The package sits below every
// other simulation package in the import graph.
package trace

// PipeInfo describes one pipeline's topology, passed to OnAttach so
// observers can pre-create per-stage tracks and counters. The slice index
// of a PipeInfo is the pipe id used by all later events.
type PipeInfo struct {
	Name   string
	Stages []string
}

// Topology is what OnAttach delivers: the model name, the pipe topology
// and the name tables event ids index. Ops and Resources are the tables a
// .lrec header writes, in the same order. Observers may keep the pointer
// but must not modify the tables.
type Topology struct {
	Model     string
	Pipes     []PipeInfo
	Ops       []string // by model.Operation.Index
	Resources []string // by position in model.Model.Resources
}

// Op returns the name of operation id, or "" for -1 or an id outside the
// table.
func (t *Topology) Op(id int) string {
	if t == nil || id < 0 || id >= len(t.Ops) {
		return ""
	}
	return t.Ops[id]
}

// Resource returns the name of resource id, or "" for -1 or an id
// outside the table.
func (t *Topology) Resource(id int) string {
	if t == nil || id < 0 || id >= len(t.Resources) {
		return ""
	}
	return t.Resources[id]
}

// StageTrack is the canonical signal/track name for a pipeline stage,
// shared by the VCD writer, the metrics exporter and the Chrome tracer so
// the same stage is labelled identically across all outputs.
func StageTrack(pipe, stage string) string { return pipe + "." + stage }

// Observer receives simulation events. Implementations must not retain
// slice arguments (they are reused across calls). pipe arguments are
// indices into the topology's Pipes; stage -1 means "whole pipeline";
// pipe -1 on OnExec means the operation is not assigned to any stage.
// Operation and resource arguments are ids into the topology's tables.
type Observer interface {
	// OnAttach is called once when the observer is attached to a
	// simulator, before any other event.
	OnAttach(t *Topology)
	// OnStepBegin marks the start of a control step.
	OnStepBegin(step uint64)
	// OnStepEnd marks the end of a control step (after commit/shift).
	OnStepEnd(step uint64)
	// OnOccupancy samples stage occupancy of one pipe at the end of the
	// step, before commit and shift: the stages the packets occupied
	// during the step.
	OnOccupancy(pipe int, occupied []bool)
	// OnDecode reports a decode of word by coding root op root (hit =
	// decode cache).
	OnDecode(root int, word uint64, hit bool)
	// OnActivate reports a scheduled activation as a directed edge:
	// source is the operation whose ACTIVATION section requested it,
	// target the operation being scheduled, delay the extra delay.
	OnActivate(source, target int, delay uint64)
	// OnExec reports one operation execution in its pipeline context.
	// packet is the id of the carrying pipeline packet, 0 when none.
	OnExec(op, pipe, stage int, packet uint64)
	// OnBehavior reports the number of behavior statements an operation's
	// BEHAVIOR section executed (interpreted engines only; inclusive of
	// directly called operations).
	OnBehavior(op int, statements uint64)
	// OnStall reports a stage (or whole-pipe, stage -1) stall request
	// with its hazard attribution.
	OnStall(info StallInfo)
	// OnFlush reports a stage (or whole-pipe, stage -1) flush with its
	// hazard attribution.
	OnFlush(info StallInfo)
	// OnShift reports a granted pipeline shift.
	OnShift(pipe int)
	// OnRetire reports a packet retiring from the pipe's last stage.
	OnRetire(pipe, stage int, packet uint64, entries int)
	// OnResourceWrite reports a scalar resource write (program order,
	// before latch commit).
	OnResourceWrite(resource int, value uint64)
	// OnMemWrite reports a memory element write. A banked memory folds
	// the bank into the address: element addr of bank b is reported at
	// b*Size + addr.
	OnMemWrite(resource int, addr, value uint64)
}

// Nop implements Observer with no-ops; embed it to implement only a
// subset of the interface.
type Nop struct{}

func (Nop) OnAttach(*Topology)             {}
func (Nop) OnStepBegin(uint64)             {}
func (Nop) OnStepEnd(uint64)               {}
func (Nop) OnOccupancy(int, []bool)        {}
func (Nop) OnDecode(int, uint64, bool)     {}
func (Nop) OnActivate(int, int, uint64)    {}
func (Nop) OnExec(int, int, int, uint64)   {}
func (Nop) OnBehavior(int, uint64)         {}
func (Nop) OnStall(StallInfo)              {}
func (Nop) OnFlush(StallInfo)              {}
func (Nop) OnShift(int)                    {}
func (Nop) OnRetire(int, int, uint64, int) {}
func (Nop) OnResourceWrite(int, uint64)    {}
func (Nop) OnMemWrite(int, uint64, uint64) {}

// Multi fans every event out to each observer in order.
type Multi []Observer

// Fanout combines observers, flattening nested Multis and dropping nils.
// Every Sink among them reads the Counters of the first one, which joins
// the fan-out once in that sink's place; a sink's other observer, if it
// has one, joins after it. Fanout returns nil when no observer remains
// and the sole observer when only one does, preserving the simulator's
// nil fast path.
func Fanout(obs ...Observer) Observer {
	var m Multi
	var shared *Counters
	var add func(o Observer)
	add = func(o Observer) {
		switch v := o.(type) {
		case nil:
		case Multi:
			for _, o := range v {
				add(o)
			}
		case Sink:
			if shared == nil {
				shared = v.Counts()
				m = append(m, shared)
			}
			if rest := v.Share(shared); rest != nil {
				m = append(m, rest)
			}
		default:
			m = append(m, o)
		}
	}
	for _, o := range obs {
		add(o)
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

func (m Multi) OnAttach(t *Topology) {
	for _, o := range m {
		o.OnAttach(t)
	}
}
func (m Multi) OnStepBegin(step uint64) {
	for _, o := range m {
		o.OnStepBegin(step)
	}
}
func (m Multi) OnStepEnd(step uint64) {
	for _, o := range m {
		o.OnStepEnd(step)
	}
}
func (m Multi) OnOccupancy(pipe int, occupied []bool) {
	for _, o := range m {
		o.OnOccupancy(pipe, occupied)
	}
}
func (m Multi) OnDecode(root int, word uint64, hit bool) {
	for _, o := range m {
		o.OnDecode(root, word, hit)
	}
}
func (m Multi) OnActivate(source, target int, delay uint64) {
	for _, o := range m {
		o.OnActivate(source, target, delay)
	}
}
func (m Multi) OnExec(op, pipe, stage int, packet uint64) {
	for _, o := range m {
		o.OnExec(op, pipe, stage, packet)
	}
}
func (m Multi) OnBehavior(op int, statements uint64) {
	for _, o := range m {
		o.OnBehavior(op, statements)
	}
}
func (m Multi) OnStall(info StallInfo) {
	for _, o := range m {
		o.OnStall(info)
	}
}
func (m Multi) OnFlush(info StallInfo) {
	for _, o := range m {
		o.OnFlush(info)
	}
}
func (m Multi) OnShift(pipe int) {
	for _, o := range m {
		o.OnShift(pipe)
	}
}
func (m Multi) OnRetire(pipe, stage int, packet uint64, entries int) {
	for _, o := range m {
		o.OnRetire(pipe, stage, packet, entries)
	}
}
func (m Multi) OnResourceWrite(resource int, value uint64) {
	for _, o := range m {
		o.OnResourceWrite(resource, value)
	}
}
func (m Multi) OnMemWrite(resource int, addr, value uint64) {
	for _, o := range m {
		o.OnMemWrite(resource, addr, value)
	}
}
