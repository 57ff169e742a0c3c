package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// Artifact is the immutable, shareable half of a simulator: the parsed
// model, the decoder over its coding tables, pre-bound static instances,
// a pre-warmed decode cache, and (in prebound mode) the pre-compiled
// behavior closures. It is built once — NewArtifact plus optional Prewarm
// calls — and then shared by any number of simulators created with
// NewFromArtifact, which allocate only the cheap per-run state (machine
// state, pipelines, time wheel, profile).
//
// This extends the paper's compiled-simulation principle (decode and bind
// once, re-execute many times) from "once per distinct word in one run" to
// "once per model, across a whole fleet of runs": M jobs on N worker
// goroutines pay the decode/compile cost exactly once, and the acceptance
// counters (Profile.Decodes, Profile.Compiles) prove it.
//
// Build and use are two strict phases. All building (NewArtifact, Prewarm)
// must happen on one goroutine; the first NewFromArtifact freezes the
// artifact, after which the shared structures are never written again and
// concurrent simulators are race-free.
type Artifact struct {
	M *model.Model

	mode   Mode
	static map[*model.Operation]*model.Instance
	decode map[decodeKey]*model.Instance
	shared *behavior.CompiledSet

	// buildX is the compile-time behavior context used while populating the
	// shared set; it carries no run-time state and is dropped at freeze.
	buildX *behavior.Exec

	decodes    uint64 // decode operations performed while pre-warming
	frozen     atomic.Bool
	freezeOnce sync.Once
}

// NewArtifact compiles the shareable simulator state for the model in the
// given mode: a static (unbound) instance for every operation
// whose variant resolves without bindings, and — in prebound mode — the
// compiled behavior closures and activation expressions of those
// instances. Call Prewarm to also pre-decode known instruction words, then
// NewFromArtifact for each run.
func NewArtifact(m *model.Model, mode Mode) *Artifact {
	a := &Artifact{
		M:      m,
		mode:   mode,
		static: map[*model.Operation]*model.Instance{},
		decode: map[decodeKey]*model.Instance{},
	}
	a.buildX = &behavior.Exec{M: m, Static: func(op *model.Operation) *model.Instance { return a.static[op] }}
	// Pre-bind the operations reachable without operand bindings (main,
	// reset, stage controllers, ...). Operations whose variants are all
	// guarded on group members cannot resolve unbound and keep using the
	// per-simulator lazy path. All are bound before any is compiled, so
	// activation plans can point at them.
	for _, op := range m.OpList {
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err == nil {
			a.static[op] = in
		}
	}
	if mode.prebinds() {
		a.shared = behavior.NewCompiledSet()
		for _, op := range m.OpList {
			// An operation that reads labels or operands runs only as a
			// decoded instance (a coding root's static instance stands in
			// for the one the simulator decodes when it runs the root).
			if in := a.static[op]; in != nil && (!op.ReadsOperands || op.IsCodingRoot) {
				a.shared.Precompile(a.buildX, in)
			}
		}
	}
	return a
}

// Mode returns the simulation mode the artifact was compiled for.
func (a *Artifact) Mode() Mode { return a.mode }

// Prewarm decodes each word through every coding root of the model and
// caches the bound (and, in prebound mode, pre-compiled) instance trees.
// Duplicate words cost nothing; words that do not decode are skipped — a
// job that actually executes such a word reports the error at run time,
// exactly as with a cold cache. Interpretive-mode artifacts ignore Prewarm
// (that mode re-decodes every execution by definition).
//
// Prewarm must complete before the first NewFromArtifact; afterwards it
// returns an error instead of mutating shared state.
func (a *Artifact) Prewarm(words []uint64) error {
	if a.frozen.Load() {
		return fmt.Errorf("sim: Prewarm on frozen artifact (already in use by a simulator)")
	}
	if a.mode == Interpretive {
		return nil
	}
	// Storage resets to zero, so pipelined models decode the all-zeros
	// word from the instruction register before the first fetch lands;
	// include it so fully pre-warmed jobs really perform zero decodes.
	words = append([]uint64{0}, words...)
	dec := coding.For(a.M)
	for _, op := range a.M.OpList {
		if !op.IsCodingRoot || op.RootResource == nil {
			continue
		}
		width := op.RootResource.Width
		for _, raw := range words {
			word := bitvec.New(raw, width)
			key := decodeKey{op, word.Uint()}
			if _, ok := a.decode[key]; ok {
				continue
			}
			in, err := dec.DecodeRoot(op, word)
			if err != nil {
				continue
			}
			a.decodes++
			a.decode[key] = in
			if a.shared != nil {
				a.shared.Precompile(a.buildX, in)
			}
		}
	}
	return nil
}

// Decodes returns the number of decode operations performed while
// pre-warming; per-job decode counts (Profile.Decodes) stay at zero when
// every executed word was pre-warmed.
func (a *Artifact) Decodes() uint64 { return a.decodes }

// Compiles returns the number of behavior closures and activation
// expressions pre-compiled into the artifact (prebound mode; zero
// otherwise).
func (a *Artifact) Compiles() uint64 {
	if a.shared == nil {
		return 0
	}
	return a.shared.Compiles()
}

// CachedWords returns the number of pre-warmed decode-cache entries.
func (a *Artifact) CachedWords() int { return len(a.decode) }

// freeze ends the build phase: the shared maps become read-only and the
// compile-time context is dropped. Safe to call from concurrent
// NewFromArtifact calls; the build phase itself (NewArtifact, Prewarm)
// still belongs to a single goroutine.
func (a *Artifact) freeze() {
	a.freezeOnce.Do(func() {
		a.frozen.Store(true)
		if a.shared != nil {
			a.shared.Freeze()
		}
		a.buildX = nil
	})
}

// NewFromArtifact creates a simulator sharing the artifact's decoder,
// static instances, pre-warmed decode cache and pre-compiled closures.
// Only per-run state is allocated, so the call is cheap enough for
// per-job construction in a batch fleet. The first call freezes the
// artifact; simulators created from one artifact may then run concurrently
// on separate goroutines. Words missing from the pre-warmed cache are
// decoded into a simulator-private overlay, never into the shared map.
func NewFromArtifact(a *Artifact) *Simulator {
	a.freeze()
	return newSimulator(a.M, a.mode, a)
}
