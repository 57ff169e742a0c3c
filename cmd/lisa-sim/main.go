// lisa-sim runs a program on the bit- and cycle-accurate simulator
// generated from a LISA model, in interpretive or compiled mode.
//
// Usage:
//
//	lisa-sim -model simple16 -mode compiled -max 100000 prog.s
//	lisa-sim -model c62x -vcd trace.vcd prog.s
//	lisa-sim -model simple16 -trace out.json -metrics out.txt prog.s
//	lisa-sim -model simple16 -profile out.pb.gz -top 10 prog.s
//	lisa-sim -model simple16 -http :6060 -http-paused prog.s
//	lisa-sim -model simple16 -record run.lrec prog.s
//	lisa-sim -model simple16 -analyze prog.s
//	lisa-sim -model simple16 -jobs progs/ -workers 8
//	lisa-sim -jobs batch.json -batch-json results.json
//
// -trace writes a Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev) with one track per pipeline stage; -metrics
// writes a per-stage/per-operation counter snapshot (Prometheus
// exposition text, or JSON when the file name ends in .json); -vcd
// writes an IEEE-1364 waveform dump; -profile/-folded/-top attribute
// simulated cycles to program addresses (pprof protobuf, flamegraph.pl
// folded stacks, hot-site table); -http serves live introspection and
// run control while the simulation runs; -record writes a deterministic
// .lrec recording for lisa-replay, and with -http also enables the
// time-travel endpoints (/rstep, /goto, /rcontinue);
// -analyze/-analyze-json/-analyze-html print or write the hazard
// attribution report (per-cause CPI breakdown, stall matrices, what-if
// estimates — see lisa-report for the standalone tool). On simulation
// errors the last -flight events are dumped to stderr and the partial
// recording is flushed.
//
// -jobs switches to batch mode: every .s file in a directory (or the jobs
// of a JSON manifest) runs on a pool of -workers goroutines sharing one
// compiled-model artifact, so the model is decoded and compiled once for
// the whole batch (see docs/fleet.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"golisa/internal/cli"
	"golisa/internal/core"
	"golisa/internal/gosim"
	"golisa/internal/model"
	"golisa/internal/otrace"
	"golisa/internal/sim"
	"golisa/internal/trace"
	"golisa/internal/vcd"
)

func main() {
	var common cli.Common
	var obs cli.Obs
	var batch cli.Batch
	common.Register(flag.CommandLine)
	obs.Register(flag.CommandLine)
	batch.Register(flag.CommandLine)
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON to this file")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot to this file (.json for JSON, else Prometheus text)")
	vcdOut := flag.String("vcd", "", "write a VCD waveform trace to this file")
	dumpRegs := flag.String("regs", "", "comma-separated register files to dump after the run (e.g. A,B)")
	flag.Parse()
	cli.HandleVersion()
	if batch.Jobs != "" {
		if flag.NArg() != 0 {
			cli.Usage("[-model m] [-mode m] -jobs <dir|manifest.json> [-workers n] [-batch-json out.json]")
		}
		m, mode := common.Load()
		batch.Perf = obs.Perf
		batch.PerfLedger = obs.PerfLedger
		batch.GenCache = common.GenCache
		cli.Fail(batch.Run(otrace.FromEnv("lisa-sim batch"), m, mode, common.Max))
		return
	}
	if flag.NArg() != 1 {
		cli.Usage("[-model m] [-mode m] prog.s")
	}

	// One trace for the whole invocation (joined from LISA_TRACEPARENT
	// when a parent process set one); the assemble and run phases are its
	// child spans, and every sink — perf record, bundle, live server —
	// carries its TraceID.
	tr := otrace.FromEnv("lisa-sim run")

	m, mode := common.Load()
	progPath := flag.Arg(0)
	src, err := os.ReadFile(progPath)
	cli.Fail(err)

	// The generated tier bypasses the generic scheduler entirely: the
	// program is compiled to specialized Go, built into a cached runner
	// and executed as a subprocess (IR-interpreted in-process when that
	// is not worth it). Programs or models outside the supported class
	// fall back to the classic prebound engine below, with a notice.
	if mode == sim.Generated {
		if runGenerated(tr, m, &common, string(src), *dumpRegs) {
			return
		}
	}

	asmSpan := tr.Start(nil, "assemble")
	s, prog, err := m.AssembleAndLoad(string(src), mode)
	asmSpan.End()
	cli.Fail(err)
	asmSpan.SetAttr("words", len(prog.Words))
	s.OnPrint = func(msg string) { fmt.Println(msg) }

	var extra []trace.Observer
	var chrome *trace.ChromeTracer
	if *traceOut != "" {
		chrome = trace.NewChromeTracer()
		extra = append(extra, chrome)
	}
	var metrics *trace.Metrics
	if *metricsOut != "" {
		metrics = trace.NewMetrics()
	}
	if *vcdOut != "" {
		vcdFile, err := os.Create(*vcdOut)
		cli.Fail(err)
		defer vcdFile.Close()
		w := vcd.New(vcdFile, s.S, s.Pipes())
		w.Header(m.Model.Name)
		extra = append(extra, w)
	}
	sess := obs.Setup(tr, m, s, prog, progPath, metrics, extra...)

	var n uint64
	runStart := time.Now()
	runSpan := tr.Start(nil, "run")
	err = sess.Protect(func() error {
		var rerr error
		n, rerr = s.Run(common.Max)
		return rerr
	})
	runSpan.SetAttr("steps", n)
	runSpan.End()
	runElapsed := time.Since(runStart)
	sess.DumpFlightOnError(err)
	cli.Fail(err)
	p := s.Profile()
	fmt.Printf("; %d words loaded at %#x\n", len(prog.Words), prog.Origin)
	fmt.Printf("; %d control steps (%s mode), halted=%v; trace %s\n", n, mode, s.Halted(), tr.ID())
	fmt.Printf("; %d decodes, %d decode-cache hits, %d activations\n",
		p.Decodes, p.DecodeHits, p.Activations)
	fmt.Printf("; %d stalls, %d flushes, %d shifts, %d packets retired\n",
		p.Stalls, p.Flushes, p.Shifts, p.Retired)
	stages := make([]string, 0, len(p.RetiredByStage))
	for st := range p.RetiredByStage {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		fmt.Printf(";   retired from %s: %d\n", st, p.RetiredByStage[st])
	}

	if chrome != nil {
		if sess.Analyzer != nil {
			// Overlay the analyzer's occupancy/stall timelines as counter
			// tracks so curves and spans share one trace-viewer view.
			sess.Analyzer.Report().EmitChromeCounters(chrome)
		}
		f, err := os.Create(*traceOut)
		cli.Fail(err)
		cli.Fail(chrome.WriteJSON(f))
		cli.Fail(f.Close())
	}
	if metrics != nil {
		f, err := os.Create(*metricsOut)
		cli.Fail(err)
		if strings.HasSuffix(*metricsOut, ".json") {
			cli.Fail(metrics.WriteJSON(f))
		} else {
			cli.Fail(metrics.WriteText(f))
		}
		cli.Fail(f.Close())
	}

	printRegs(s.M, s.S, *dumpRegs)

	sess.WritePerf(n, runElapsed)
	sess.WriteBundle(n, runElapsed)
	sess.Close()
	sess.Wait()
}

// runGenerated runs the program on the generated-code simulator. It
// returns false (without output) when the (model, program) pair is
// outside gosim's supported class, in which case the caller falls back to
// the classic prebound engine.
func runGenerated(tr *otrace.Trace, m *core.Machine, common *cli.Common, src, dumpRegs string) bool {
	a, err := m.NewAssembler()
	cli.Fail(err)
	asmSpan := tr.Start(nil, "assemble")
	prog, err := a.Assemble(src)
	asmSpan.End()
	cli.Fail(err)
	p, err := gosim.Compile(m, prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v; falling back to the prebound engine\n", cli.Tool, err)
		return false
	}
	cache := gosim.NewCache(common.GenCache)
	eng := gosim.NewEngine(p, cache, gosim.Options{
		OnPrint: func(msg string) { fmt.Println(msg) },
	})
	runSpan := tr.Start(nil, "run")
	res, err := eng.Run(common.Max)
	runSpan.End()
	cache.Close()
	cli.Fail(err)
	fmt.Printf("; %d words loaded at %#x\n", len(prog.Words), prog.Origin)
	fmt.Printf("; %d control steps (generated mode), halted=%v; trace %s\n", res.Steps, res.Halted, tr.ID())
	if res.Native {
		fmt.Printf("; native runner: cache hit=%v, runner builds this process=%d, run loop %s\n",
			res.CacheHit, eng.Cache.Builds(), time.Duration(res.RunNs))
	} else {
		fmt.Printf("; IR fallback (%s), run loop %s\n", res.Fallback, time.Duration(res.RunNs))
	}
	printRegs(m.Model, p.StateFrom(res.Scalars, res.Arrays), dumpRegs)
	return true
}

// printRegs prints every element of the comma-separated register files
// in names from the final state st: "A0 = v" per element of a plain
// file, "vreg[b][i] = v" per bank b and element i of a banked one.
func printRegs(m *model.Model, st *model.State, names string) {
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r := m.Resource(name)
		if r == nil || !r.IsMemory() {
			cli.Fail(fmt.Errorf("no register file %q", name))
		}
		if r.Banks <= 0 {
			for i := uint64(0); i < r.Size; i++ {
				v, err := st.ReadElem(r, r.Base+i)
				cli.Fail(err)
				fmt.Printf("%s%-2d = %d\n", name, i, v.Int())
			}
			continue
		}
		for b := uint64(0); b < uint64(r.Banks); b++ {
			for i := uint64(0); i < r.Size; i++ {
				v, err := st.ReadBanked(r, b, r.Base+i)
				cli.Fail(err)
				fmt.Printf("%s[%d][%d] = %d\n", name, b, i, v.Int())
			}
		}
	}
}
