package sim

import (
	"golisa/internal/pipeline"
	"golisa/internal/trace"
)

// Hazard-cause classification. LISA has no hardware hazard detection: the
// model itself requests every stall and flush (paper §3.2.4), so a cause
// can only be derived from the request's context. The simulator keeps a
// stack of the conditions guarding the statement being executed — the
// ACTIVATION if/switch conditions (sim.go) and the BEHAVIOR if/switch
// conditions (internal/behavior) — and classifies each stall/flush request
// the moment it is made:
//
//   - flush → control (redirections discard wrong-path work); a gating
//     resource is still reported when a guard names one;
//   - stall guarded by a condition reading a machine resource → data
//     hazard on that resource (the resource that is currently nonzero is
//     preferred over the first one mentioned, so compound guards like
//     `mem_wait > 0 || prog_wait > 0` attribute to the interlock that
//     actually fired);
//   - stall guarded by a resource-free condition → control;
//   - unguarded stall from an ACTIVATION section → structural (the model
//     holds the stage on every execution);
//   - unguarded stall from BEHAVIOR code → explicit.
//
// The guard stacks are maintained only while an observer is attached, so
// an uninstrumented simulation pays one nil check per branch.

// unattributed is the attribution of a request made while no observer is
// attached, or restored from a snapshot: no source, no gating resource.
var unattributed = trace.StallInfo{SourceOp: -1, Resource: -1}

// pipeOpInfo builds the hazard attribution of a stall/flush request made
// right now: the requesting operation, its packet, and the cause derived
// from the live guard stacks. fromBehavior tells whether the request came
// from BEHAVIOR code (via behavior.Context.PipeOp) or from an ACTIVATION
// section. Only called with an observer attached.
func (s *Simulator) pipeOpInfo(op pipeline.Op, fromBehavior bool) trace.StallInfo {
	info := unattributed
	if s.cur.inst != nil {
		info.SourceOp = s.cur.inst.Op.Index
	}
	if s.cur.packet != nil {
		info.Packet = s.cur.packet.ID
	}
	if op == pipeline.Shift {
		return info
	}
	info.Cause, info.Resource = s.classifyPipeOp(op, fromBehavior)
	return info
}

// classifyPipeOp derives (cause, gating resource id) from the guard
// stacks. Guards are scanned innermost-first; within one guard the first
// resource whose current value is nonzero wins (it is the interlock that
// made the condition true), falling back to the first resource mentioned.
func (s *Simulator) classifyPipeOp(op pipeline.Op, fromBehavior bool) (trace.Cause, int) {
	behaviorGuards := s.x.Guards()
	guarded := len(behaviorGuards) > 0 || len(s.actGuards) > 0
	res := s.scanGuards(behaviorGuards)
	if res < 0 {
		res = s.scanGuards(s.actGuards)
	}
	if op == pipeline.Flush {
		return trace.CauseControl, res
	}
	switch {
	case res >= 0:
		return trace.CauseData, res
	case guarded:
		return trace.CauseControl, -1
	case fromBehavior:
		return trace.CauseExplicit, -1
	default:
		return trace.CauseStructural, -1
	}
}

// scanGuards walks a guard stack innermost-first and returns the gating
// resource of the first guard that names any resource: the first one
// whose current (scalar) value is nonzero, else the first one mentioned;
// -1 when no guard names a resource.
func (s *Simulator) scanGuards(guards [][]int) int {
	for i := len(guards) - 1; i >= 0; i-- {
		ids := guards[i]
		if len(ids) == 0 {
			continue
		}
		for _, id := range ids {
			if r := s.M.Resources[id]; !r.IsMemory() && s.S.Read(r).Bool() {
				return id
			}
		}
		return ids[0]
	}
	return -1
}
