// Package gosim is the true compiled simulator: it translates a model's
// coding leaves plus its ACTIVATION timing into specialized Go source —
// one switch per pipeline stage over every leaf's behaviors in that
// stage, a static schedule of one word slot per stage, state flattened
// into package-level variables — builds it once per model with the host
// Go toolchain into a standalone runner, and keeps runner processes
// warm: each run sends one of them its program image and decode table
// and reads back its reply (proto.go). This is
// the paper's compiled-simulation principle applied the way LISA
// generates its other tools: once per machine description. Where sim's
// "compiled" modes pre-bind closures inside the generic scheduler, gosim
// emits straight-line host code the Go compiler optimizes per model.
//
// When the toolchain is unavailable, or the program is too short to be
// worth a runner, the same IR runs on an in-process threaded-code
// interpreter (interp.go) with identical semantics — the IR Machine is
// also the reference the emitted runner is cross-checked against.
//
// Models outside the statically schedulable class (multiple pipelines,
// data-dependent delays, stalls/flushes), and programs with a word that
// decodes to a leaf the IR cannot express, fail Compile with an error
// wrapping ErrUnsupported; callers fall back to the classic simulator.
package gosim

import (
	"errors"
	"fmt"
	"time"
)

// ErrUnsupported marks a (model, program) pair outside gosim's statically
// schedulable class. Callers match it with errors.Is and fall back to the
// interpretive/prebound engines.
var ErrUnsupported = errors.New("unsupported by the generated-code simulator")

// Backend selects how an Engine executes.
type Backend int

const (
	// Auto runs on a native runner when the Go toolchain is on PATH and
	// the program is at least DefaultMinBuildWords long; otherwise it runs
	// the in-process IR interpreter.
	Auto Backend = iota
	// ForceIR always runs the in-process interpreter.
	ForceIR
	// ForceNative always builds and runs the subprocess runner, and
	// propagates build/exec failures instead of falling back.
	ForceNative
)

// DefaultMinBuildWords is the Auto-backend threshold: programs shorter
// than this run on the IR interpreter, which finishes them before a
// runner process could be reached.
const DefaultMinBuildWords = 4

// Options shapes one Engine.
type Options struct {
	Backend Backend
	// OnPrint receives each print() line as it retires; nil collects
	// lines only into Result.Prints.
	OnPrint func(string)
	// OnCycleState, when non-nil, receives the architectural state after
	// every completed control step (slot-indexed scalars and memories,
	// valid only during the call) — the lockstep cross-check hook. The
	// native runner streams each step's changes over the protocol's trace
	// lines, so the hook observes identical sequences on either backend.
	OnCycleState func(cycle uint64, scalars []uint64, arrays [][]uint64)
}

// Result is the outcome of one Engine run.
type Result struct {
	Steps  uint64
	Halted bool
	Prints []string
	// RunNs is the self-timed duration of the pure run loop in
	// nanoseconds: the native runner times itself around its step loop
	// (build, load and protocol costs excluded), the IR path times
	// Machine.Run.
	RunNs int64
	// Native reports that the run executed the built subprocess runner.
	Native bool
	// CacheHit reports that the run's runner came from the cache without
	// invoking `go build` for it.
	CacheHit bool
	// Fallback explains why an Auto engine ran on the IR interpreter
	// instead of a native runner; empty on native runs and ForceIR.
	Fallback string
	// Scalars and Arrays are the final architectural state, slot-indexed
	// like model.State, every memory at full length.
	Scalars []uint64
	Arrays  [][]uint64
}

// Engine runs one compiled Program, choosing between the native runner
// and the in-process interpreter per Options. Engines are cheap; the
// expensive artifacts (the Program, the runner binary and its warm
// processes) are shared through the Program itself and the Cache.
type Engine struct {
	P     *Program
	Cache *Cache
	Opt   Options
}

// NewEngine creates an engine over a compiled program. cache may be nil,
// which confines Auto to the IR interpreter.
func NewEngine(p *Program, cache *Cache, opt Options) *Engine {
	return &Engine{P: p, Cache: cache, Opt: opt}
}

// Run executes up to max control steps and returns the result. Auto
// engines degrade to the IR interpreter on any native-path obstacle,
// recording the reason in Result.Fallback; ForceNative propagates it.
func (e *Engine) Run(max uint64) (*Result, error) {
	reason := e.nativeObstacle()
	if reason == "" {
		res, err := e.runNative(max)
		if err == nil || res != nil {
			// res != nil with an error is a simulation error (the error
			// string of the runner's result line): the IR backend would
			// reproduce it, so it is final.
			return res, err
		}
		if e.Opt.Backend == ForceNative {
			return nil, err
		}
		reason = err.Error()
	}
	if e.Opt.Backend == ForceNative {
		return nil, fmt.Errorf("gosim: native backend unavailable: %s", reason)
	}
	res, err := e.runIR(max)
	if res != nil && e.Opt.Backend == Auto {
		res.Fallback = reason
	}
	return res, err
}

// nativeObstacle reports why the native path cannot run ("" = it can).
func (e *Engine) nativeObstacle() string {
	if e.Opt.Backend == ForceIR {
		return "backend forced to the IR interpreter"
	}
	if e.Cache == nil {
		return "no runner cache configured"
	}
	if e.Opt.Backend == Auto && len(e.P.Words) < DefaultMinBuildWords {
		return fmt.Sprintf("program has %d words, below the %d-word runner threshold", len(e.P.Words), DefaultMinBuildWords)
	}
	if e.Cache.goPath == "" {
		return noToolchain
	}
	return ""
}

// runIR executes on the in-process threaded-code interpreter.
func (e *Engine) runIR(max uint64) (*Result, error) {
	m := e.P.NewMachine()
	res := &Result{}
	m.OnPrint = func(line string) {
		res.Prints = append(res.Prints, line)
		if e.Opt.OnPrint != nil {
			e.Opt.OnPrint(line)
		}
	}
	if cb := e.Opt.OnCycleState; cb != nil {
		m.OnCycle = func(mm *Machine) {
			cb(mm.Cycles(), mm.sc, mm.arr)
		}
	}
	start := time.Now()
	steps, err := m.Run(max)
	res.RunNs = time.Since(start).Nanoseconds()
	res.Steps = steps
	res.Halted = m.Halted()
	res.Scalars = m.Scalars()
	res.Arrays = m.Arrays()
	if err != nil {
		return res, err
	}
	return res, nil
}

// runNative runs on a warm runner process of the program's model. A
// runner that breaks the protocol or dies is discarded, and its binary
// rebuilt once; a simulation error leaves the process warm.
func (e *Engine) runNative(max uint64) (*Result, error) {
	pr, hit, err := e.Cache.acquire(e.P)
	if err != nil {
		return nil, err
	}
	res, err := pr.run(e.P, max, e.Opt)
	if res == nil {
		e.Cache.discard(pr)
		return nil, err
	}
	e.Cache.release(pr)
	res.Native, res.CacheHit = true, hit
	return res, err
}
