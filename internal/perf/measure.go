package perf

import (
	"fmt"
	"time"

	"golisa/internal/analyze"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// MeasureOptions shapes a Measure run.
type MeasureOptions struct {
	// Runs is the number of timed wall-clock passes (default 5). The
	// counter pass is separate and always runs once.
	Runs int
	// MaxSteps bounds every pass (default 1,000,000 — the cli default).
	MaxSteps uint64
	// Cover disables the coverage tier when false is explicit; the zero
	// value of MeasureOptions measures coverage (NoCover=false).
	NoCover bool
	// Note is carried into the record verbatim.
	Note string
	// Time stamps the record (RFC3339); empty means "now". Tests pin it
	// to build byte-identical records.
	Time string
	// WallRunner, when non-nil, replaces the engine of the timed wall
	// passes: it must run the program to completion and return the step
	// count and the pure run-loop nanoseconds. The generated tier plugs
	// its specialized runner in here, so the wall numbers time the
	// generated code itself (build, exec and protocol costs excluded)
	// while the counter pass still runs the observer-bearing classic
	// engine. Step counts must match the counter pass, as always.
	WallRunner func(maxSteps uint64) (steps uint64, ns int64, err error)
}

// DefaultRuns is the wall-clock pass count when MeasureOptions.Runs is 0.
const DefaultRuns = 5

// Measure produces a sealed RunRecord for one program on one machine:
//
//  1. A counter pass with the hazard analyzer and coverage collector
//     attached before Reset (so the reset operation is covered, the
//     lisa-cov convention) fills the deterministic tier.
//  2. N detached passes (observer nil — the production fast path) are
//     timed; ns/cycle per pass fills the wall tier as median-of-N. Each
//     pass must reproduce the counter pass's cycle count exactly, or
//     Measure fails: a nondeterministic run cannot be gated.
//
// progName is the program's ledger identity ("fir", "dot64"); the content
// hash distinguishes edits behind a stable name.
func Measure(mc *core.Machine, mode sim.Mode, progName, src string, opt MeasureOptions) (*RunRecord, error) {
	if opt.Runs <= 0 {
		opt.Runs = DefaultRuns
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 1_000_000
	}
	asmblr, err := mc.NewAssembler()
	if err != nil {
		return nil, err
	}
	prog, err := asmblr.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("perf: assemble %s: %w", progName, err)
	}
	pm, err := mc.ProgramMemory()
	if err != nil {
		return nil, err
	}

	stamp := opt.Time
	if stamp == "" {
		stamp = time.Now().UTC().Format(time.RFC3339)
	}
	rec := New(Env{
		Model:       mc.Model.Name,
		ModelHash:   HashString(mc.Source),
		Program:     progName,
		ProgramHash: HashProgram(prog.Origin, prog.Words),
		Engine:      mode.String(),
		Workers:     1,
		Note:        opt.Note,
		Time:        stamp,
	})

	// Counter pass: analyzer + collector, sharing one Counters, attached
	// before Reset.
	az := analyze.New()
	obs := []trace.Observer{az}
	var col *cover.Collector
	s := sim.New(mc.Model, mode)
	if !opt.NoCover {
		col = cover.NewCollector(cover.NewMap(mc.Model))
		s.OnDecoded = col.MarkDecoded
		obs = append(obs, col)
	}
	s.SetObserver(trace.Fanout(obs...))
	s.OnPrint = func(string) {} // target prints are measurement noise
	if err := s.Reset(); err != nil {
		return nil, err
	}
	if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
		return nil, err
	}
	steps, err := s.Run(opt.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("perf: counter pass: %w", err)
	}
	rec.SetCounters(steps, s.Halted(), az.Report())
	if col != nil {
		rec.SetCoverage(col.Snapshot())
	}

	// Wall passes: fresh detached simulator each time; cycle counts must
	// match the counter pass or the measurement is meaningless.
	nsPerCycle := make([]float64, 0, opt.Runs)
	for i := 0; i < opt.Runs; i++ {
		if opt.WallRunner != nil {
			wsteps, ns, err := opt.WallRunner(opt.MaxSteps)
			if err != nil {
				return nil, fmt.Errorf("perf: wall pass %d: %w", i+1, err)
			}
			if wsteps != steps {
				return nil, fmt.Errorf("perf: nondeterministic run: wall pass %d took %d cycles, counter pass took %d",
					i+1, wsteps, steps)
			}
			if steps > 0 {
				nsPerCycle = append(nsPerCycle, float64(ns)/float64(steps))
			}
			continue
		}
		ws, err := mc.NewSimulator(mode)
		if err != nil {
			return nil, err
		}
		ws.OnPrint = func(string) {}
		if err := ws.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
			return nil, err
		}
		start := time.Now()
		wsteps, err := ws.Run(opt.MaxSteps)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("perf: wall pass %d: %w", i+1, err)
		}
		if wsteps != steps {
			return nil, fmt.Errorf("perf: nondeterministic run: wall pass %d took %d cycles, counter pass took %d",
				i+1, wsteps, steps)
		}
		if steps > 0 {
			nsPerCycle = append(nsPerCycle, float64(elapsed.Nanoseconds())/float64(steps))
		}
	}
	rec.SetWall(nsPerCycle)
	return rec.Seal(), nil
}
