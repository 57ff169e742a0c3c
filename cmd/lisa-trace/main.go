// lisa-trace replays a program on the cycle-accurate simulator with the
// full observability stack attached and emits every profile format in one
// run:
//
//	<base>.trace.json   Chrome trace-event JSON (chrome://tracing, Perfetto):
//	                    one track per pipeline stage, instruction packets
//	                    as flows, stalls/flushes as instants
//	<base>.metrics.txt  Prometheus-exposition-style counter snapshot
//	<base>.metrics.json the same snapshot as machine-readable JSON
//	<base>.vcd          IEEE-1364 waveform dump (with -vcd)
//
// The shared observability flags also apply: -profile/-folded/-top for
// the target-program cycle profiler, -http for live introspection, and
// -analyze/-analyze-json/-analyze-html for the hazard attribution report.
// On a simulation error the flight recorder dumps the last -flight events
// to stderr for post-mortem analysis.
//
// Usage:
//
//	lisa-trace -model simple16 prog.s            # writes prog.trace.json ...
//	lisa-trace -model c62x -o /tmp/run -vcd prog.s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"golisa/internal/cli"
	"golisa/internal/otrace"
	"golisa/internal/trace"
	"golisa/internal/vcd"
)

func main() {
	var common cli.Common
	var obs cli.Obs
	common.Register(flag.CommandLine)
	obs.Register(flag.CommandLine)
	outBase := flag.String("o", "", "output base name (default: program name without extension)")
	withVCD := flag.Bool("vcd", false, "also write <base>.vcd")
	flag.Parse()
	cli.HandleVersion()
	if flag.NArg() != 1 {
		cli.Usage("[-model m] [-mode m] [-o base] prog.s")
	}

	progPath := flag.Arg(0)
	base := *outBase
	if base == "" {
		base = strings.TrimSuffix(progPath, ".s")
	}

	tr := otrace.FromEnv("lisa-trace run")

	m, mode := common.Load()
	src, err := os.ReadFile(progPath)
	cli.Fail(err)
	asmSpan := tr.Start(nil, "assemble")
	s, prog, err := m.AssembleAndLoad(string(src), mode)
	asmSpan.End()
	cli.Fail(err)
	asmSpan.SetAttr("words", len(prog.Words))
	s.OnPrint = func(msg string) { fmt.Println(msg) }

	chrome := trace.NewChromeTracer()
	metrics := trace.NewMetrics()
	extra := []trace.Observer{chrome}
	if *withVCD {
		vcdFile, err := os.Create(base + ".vcd")
		cli.Fail(err)
		defer vcdFile.Close()
		w := vcd.New(vcdFile, s.S, s.Pipes())
		w.Header(m.Model.Name)
		extra = append(extra, w)
	}
	sess := obs.Setup(tr, m, s, prog, progPath, metrics, extra...)

	runStart := time.Now()
	runSpan := tr.Start(nil, "run")
	n, err := s.Run(common.Max)
	runSpan.SetAttr("steps", n)
	runSpan.End()
	runElapsed := time.Since(runStart)
	sess.DumpFlightOnError(err)
	cli.Fail(err)

	write := func(name string, emit func(io.Writer) error) {
		f, err := os.Create(name)
		cli.Fail(err)
		cli.Fail(emit(f))
		cli.Fail(f.Close())
		fmt.Printf("; wrote %s\n", name)
	}
	if sess.Analyzer != nil {
		// Overlay the analyzer's occupancy/stall timelines as counter
		// tracks so curves and spans share one trace-viewer view.
		sess.Analyzer.Report().EmitChromeCounters(chrome)
	}
	write(base+".trace.json", chrome.WriteJSON)
	write(base+".metrics.txt", metrics.WriteText)
	write(base+".metrics.json", metrics.WriteJSON)

	p := s.Profile()
	fmt.Printf("; %d words loaded at %#x\n", len(prog.Words), prog.Origin)
	fmt.Printf("; %d control steps (%s mode), halted=%v, %d trace events; trace %s\n",
		n, mode, s.Halted(), chrome.Len(), tr.ID())
	fmt.Printf("; %d decodes (%d cached), %d activations, %d stalls, %d flushes, %d retired\n",
		p.Decodes, p.DecodeHits, p.Activations, p.Stalls, p.Flushes, p.Retired)

	sess.WritePerf(n, runElapsed)
	sess.WriteBundle(n, runElapsed)
	sess.Close()
	sess.Wait()
}
