// Package analyze implements the hazard attribution report of the golisa
// simulators: from the cause-annotated stall and flush events of the
// pipeline model, counted by trace.Counters, it explains where the
// simulated cycles went — per-cause, per-resource and
// per-operation-pair stall matrices, per-stage occupancy timelines, a CPI
// breakdown, and a what-if estimate of the CPI gained by eliminating each
// hazard class.
//
// The CPI breakdown is the Counters' step attribution: issue, penalty by
// cause and idle cycles. Its buckets satisfy
//
//	issue + Σ penalty(cause) + other + idle == steps
//
// by construction, and the profiler charges the same steps to its sites,
// so the two reports reconcile cycle for cycle.
package analyze

import (
	"golisa/internal/trace"
)

// Analyzer exports a trace.Counters as the hazard attribution report.
// Attach it to a simulator alone or in a trace.Fanout, where it shares
// one Counters with the other sinks; OnAttach starts the counts afresh,
// so one Analyzer can be re-attached for repeated runs or replay passes.
type Analyzer struct{ *trace.Counters }

// New creates an empty analyzer over its own Counters; it counts once
// attached.
func New() *Analyzer { return &Analyzer{trace.NewCounters()} }

// Share implements trace.Sink.
func (a *Analyzer) Share(c *trace.Counters) trace.Observer {
	a.Counters = c
	return nil
}

// Steps returns the number of analyzed control steps.
func (a *Analyzer) Steps() uint64 { return a.Counters.Steps }
