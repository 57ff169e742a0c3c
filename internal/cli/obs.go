package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"golisa/internal/analyze"
	"golisa/internal/asm"
	"golisa/internal/buildinfo"
	"golisa/internal/bundle"
	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/debug"
	"golisa/internal/fleet"
	"golisa/internal/otrace"
	"golisa/internal/perf"
	"golisa/internal/profile"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Obs is the observability flag group: flight recorder, target-program
// profiler and live introspection server. It is defined once here so
// lisa-sim and lisa-trace expose identical flags.
type Obs struct {
	FlightN     int
	ProfileOut  string
	FoldedOut   string
	Top         int
	HTTPAddr    string
	HTTPPaused  bool
	RecordOut   string
	RecordEvery uint64
	Analyze     bool
	AnalyzeJSON string
	AnalyzeHTML string
	Cov         bool
	CovJSON     string
	CovHTML     string
	Perf        bool
	PerfLedger  string
	Bundle      string
}

// Register defines the flags on fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.IntVar(&o.FlightN, "flight", 256, "flight-recorder ring size for post-mortem dumps (0 disables)")
	fs.StringVar(&o.ProfileOut, "profile", "", "write a pprof cycle profile (pb.gz, for `go tool pprof`) to this file")
	fs.StringVar(&o.FoldedOut, "folded", "", "write folded stacks (flamegraph.pl input) to this file")
	fs.IntVar(&o.Top, "top", 0, "print the N hottest instruction sites after the run")
	fs.StringVar(&o.HTTPAddr, "http", "", "serve live introspection (metrics, state, run control) on this address, e.g. :6060")
	fs.BoolVar(&o.HTTPPaused, "http-paused", false, "with -http: start paused at step 0 so breakpoints can be set first")
	fs.StringVar(&o.RecordOut, "record", "", "record the run to this .lrec file for lisa-replay (and enable time travel with -http)")
	fs.Uint64Var(&o.RecordEvery, "record-every", 1024, "with -record: control steps between full-state checkpoints")
	fs.BoolVar(&o.Analyze, "analyze", false, "print the hazard attribution report (stall/flush causes, CPI breakdown) after the run")
	fs.StringVar(&o.AnalyzeJSON, "analyze-json", "", "write the hazard attribution report as JSON to this file")
	fs.StringVar(&o.AnalyzeHTML, "analyze-html", "", "write the hazard attribution report as a self-contained HTML page to this file")
	fs.BoolVar(&o.Cov, "cov", false, "print the model-coverage report (coding leaves, ops, activation edges, hazard causes) after the run")
	fs.StringVar(&o.CovJSON, "cov-json", "", "write the model-coverage report as JSON (mergeable/diffable with lisa-cov) to this file")
	fs.StringVar(&o.CovHTML, "cov-html", "", "write the model-coverage report as an HTML heatmap to this file")
	fs.BoolVar(&o.Perf, "perf", false, "print a perf-observatory run record (deterministic counters, coverage, wall time) after the run")
	fs.StringVar(&o.PerfLedger, "perf-ledger", "", "append the run record to this .lperf ledger (implies -perf instrumentation)")
	fs.StringVar(&o.Bundle, "bundle", "", "write a diagnostic bundle (tar.gz: spans, flight, profile, analyze, coverage, perf, buildinfo, config) to this file after the run")
}

// wantPerf reports whether any flag asked for a perf run record.
func (o *Obs) wantPerf() bool { return o.Perf || o.PerfLedger != "" }

// wantAnalyzer reports whether any flag asked for hazard attribution (a
// perf record's deterministic tier is built from the analyzer's report;
// a bundle captures the report as a section).
func (o *Obs) wantAnalyzer() bool {
	return o.Analyze || o.AnalyzeJSON != "" || o.AnalyzeHTML != "" || o.HTTPAddr != "" || o.wantPerf() || o.Bundle != ""
}

// wantCover reports whether any flag asked for model coverage (the live
// server always gets a collector so /coverage works).
func (o *Obs) wantCover() bool {
	return o.Cov || o.CovJSON != "" || o.CovHTML != "" || o.HTTPAddr != "" || o.wantPerf() || o.Bundle != ""
}

// Session is one run's observability stack, assembled by Obs.Setup.
type Session struct {
	Flight   *trace.Flight
	Metrics  *trace.Metrics
	Profiler *profile.Profiler
	Recorder *replay.Recorder
	Analyzer *analyze.Analyzer
	Cover    *cover.Collector
	Server   *debug.Server
	// Trace is the run's trace context (shared with every sink: perf
	// records, bundles, the live server's batch endpoints).
	Trace *otrace.Trace

	obs  Obs
	srvL net.Listener

	// Perf-record inputs, kept so WritePerf (and the live /perf endpoint)
	// can build a run record after — or during — the run.
	mc       *core.Machine
	sim      *sim.Simulator
	prog     *asm.Program
	progName string
	progPath string
}

// Setup builds the observers requested by the flags, attaches them to the
// simulator (after program load, so load-time writes stay out of the
// event stream), and starts the live server when -http is set. tr is the
// run's trace (NewRunTrace; nil mints a fresh one); metrics may be nil
// (one is created if the live server needs it); extra observers join the
// fanout.
func (o *Obs) Setup(tr *otrace.Trace, mc *core.Machine, s *sim.Simulator, prog *asm.Program, source string, metrics *trace.Metrics, extra ...trace.Observer) *Session {
	if tr == nil {
		tr = otrace.New(Tool)
	}
	sess := &Session{
		Metrics: metrics, obs: *o, Trace: tr,
		mc: mc, sim: s, prog: prog,
		progName: strings.TrimSuffix(filepath.Base(source), filepath.Ext(source)),
		progPath: source,
	}
	var observers []trace.Observer
	observers = append(observers, extra...)
	if metrics != nil {
		observers = append(observers, metrics)
	}
	if o.FlightN > 0 {
		sess.Flight = trace.NewFlight(o.FlightN)
		observers = append(observers, sess.Flight)
	}
	if o.ProfileOut != "" || o.FoldedOut != "" || o.Top > 0 || o.HTTPAddr != "" || o.Bundle != "" {
		dis, err := mc.NewDisassembler()
		Fail(err)
		sess.Profiler = profile.New(profile.Options{
			Source: source,
			Model:  mc.Model.Name,
			Origin: prog.Origin,
			Words:  prog.Words,
			Dis:    dis,
		})
		observers = append(observers, sess.Profiler)
	}
	if o.RecordOut != "" {
		rec, err := OpenRecorder(s, mc.Source, o.RecordOut, o.RecordEvery)
		Fail(err)
		sess.Recorder = rec
		observers = append(observers, rec)
	}
	if o.wantAnalyzer() {
		sess.Analyzer = analyze.New()
		observers = append(observers, sess.Analyzer)
	}
	if o.wantCover() {
		sess.Cover = cover.NewCollector(cover.NewMap(mc.Model))
		s.OnDecoded = sess.Cover.MarkDecoded
		observers = append(observers, sess.Cover)
	}
	if o.HTTPAddr != "" {
		if sess.Metrics == nil {
			sess.Metrics = trace.NewMetrics()
			observers = append(observers, sess.Metrics)
		}
		sess.Server = debug.NewServer(s, debug.Options{
			Metrics:  sess.Metrics,
			Flight:   sess.Flight,
			Profiler: sess.Profiler,
			Recorder: sess.Recorder,
			Analyzer: sess.Analyzer,
			Cover:    sess.Cover,
			Perf:     sess.PerfRecord,
			// One fleet metrics collector accounts for every batch the
			// server runs and is exposed at /batch/metrics.
			Batch:       &fleet.Service{Machine: mc, Mode: s.Mode(), Metrics: fleet.NewMetrics()},
			StartPaused: o.HTTPPaused,
			Log:         Log(),
			// /bundle runs under the controller funnel, so the mid-run
			// capture sees a consistent step boundary (no wall tier).
			Bundle: func() (*bundle.Builder, error) {
				return sess.BuildBundle(sess.sim.Step(), 0), nil
			},
		})
		observers = append(observers, sess.Server.Attach())
		l, err := net.Listen("tcp", o.HTTPAddr)
		Fail(err)
		sess.srvL = l
		Log().Info("live introspection server listening", "url", "http://"+l.Addr().String()+"/")
		go func() { Fail(http.Serve(l, sess.Server.Handler())) }()
	}
	if len(observers) > 0 {
		s.SetObserver(trace.Fanout(observers...))
	}
	return sess
}

// PerfRecord builds a sealed perf run record from the session's current
// simulator state and observers. The live server's /perf endpoint calls
// it mid-run (no wall tier — a paused run has no meaningful ns/cycle);
// WritePerf calls it after the run with the measured wall time.
func (sess *Session) PerfRecord() *perf.RunRecord {
	rec := perf.New(perf.Env{
		Model:       sess.mc.Model.Name,
		ModelHash:   perf.HashString(sess.mc.Source),
		Program:     sess.progName,
		ProgramHash: perf.HashProgram(sess.prog.Origin, sess.prog.Words),
		Engine:      sess.sim.Mode().String(),
		Workers:     1,
		Note:        "observed run (observers attached); wall time is not calibrated — use lisa-perf measure for calibration",
		Time:        time.Now().UTC().Format(time.RFC3339),
		TraceID:     sess.Trace.ID().String(),
		SpanID:      sess.Trace.Root().ID().String(),
	})
	var rep *analyze.Report
	if sess.Analyzer != nil {
		rep = sess.Analyzer.Report()
	}
	rec.SetCounters(sess.sim.Step(), sess.sim.Halted(), rep)
	if sess.Cover != nil {
		rec.SetCoverage(sess.Cover.Snapshot())
	}
	return rec.Seal()
}

// WritePerf emits the run's perf record: printed when -perf was given,
// appended to the -perf-ledger file when one was named. steps/elapsed are
// the finished run's cycle count and wall time.
func (sess *Session) WritePerf(steps uint64, elapsed time.Duration) {
	if !sess.obs.wantPerf() {
		return
	}
	rec := sess.PerfRecord()
	if steps > 0 && elapsed > 0 {
		rec.SetWall([]float64{float64(elapsed.Nanoseconds()) / float64(steps)})
		rec.Seal()
	}
	if sess.obs.Perf {
		Fail(rec.WriteText(os.Stdout))
	}
	if sess.obs.PerfLedger != "" {
		n, err := perf.AppendUnique(sess.obs.PerfLedger, rec)
		Fail(err)
		if n > 0 {
			fmt.Printf("; appended perf record %.12s to %s\n", rec.ID, sess.obs.PerfLedger)
		}
	}
}

// BuildBundle captures the session's diagnostic bundle: every attached
// observer's current view plus the build/host fingerprint and the
// invocation config, all stamped with the run's trace identity. Called
// after the run by WriteBundle (with the measured wall time) and mid-run
// by the live server's /bundle endpoint (under the controller funnel,
// with no wall tier). Sections whose capture fails are skipped with a
// warning — a partial bundle beats no bundle during an incident.
func (sess *Session) BuildBundle(steps uint64, elapsed time.Duration) *bundle.Builder {
	b := bundle.New(bundle.Meta{
		Tool:        Tool,
		Model:       sess.mc.Model.Name,
		ModelHash:   perf.HashString(sess.mc.Source),
		Program:     sess.progName,
		ProgramHash: perf.HashProgram(sess.prog.Origin, sess.prog.Words),
		Mode:        sess.sim.Mode().String(),
		TraceID:     sess.Trace.ID().String(),
		Traceparent: sess.Trace.Context().Traceparent(),
	})
	capture := func(name string, emit func(io.Writer) error) {
		if err := b.AddFunc(name, emit); err != nil {
			Log().Warn("bundle section skipped", "section", name, "err", err)
		}
	}
	capture(bundle.SpansFile, sess.Trace.WriteJSON)
	if sess.Flight != nil {
		capture(bundle.FlightFile, sess.Flight.Dump)
	}
	if sess.Profiler != nil {
		capture(bundle.ProfileFile, sess.Profiler.WritePprof)
	}
	if sess.Analyzer != nil {
		capture(bundle.AnalyzeFile, sess.Analyzer.Report().WriteJSON)
	}
	if sess.Cover != nil {
		if rep, err := sess.Cover.Map().Resolve(sess.Cover.Snapshot()); err == nil {
			capture(bundle.CoverageFile, rep.WriteJSON)
		} else {
			Log().Warn("bundle section skipped", "section", bundle.CoverageFile, "err", err)
		}
	}
	rec := sess.PerfRecord()
	if steps > 0 && elapsed > 0 {
		rec.SetWall([]float64{float64(elapsed.Nanoseconds()) / float64(steps)})
		rec.Seal()
	}
	capture(bundle.PerfFile, rec.WriteJSON)
	capture(bundle.BuildFile, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(buildinfo.Get())
	})
	capture(bundle.ConfigFile, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"argv":    os.Args,
			"model":   sess.mc.Model.Name,
			"mode":    sess.sim.Mode().String(),
			"program": sess.progPath,
		})
	})
	return b
}

// WriteBundle writes the -bundle archive after the run; a no-op when the
// flag was not given. steps/elapsed are the finished run's cycle count
// and wall time (they calibrate the bundled perf record's wall tier).
func (sess *Session) WriteBundle(steps uint64, elapsed time.Duration) {
	if sess.obs.Bundle == "" {
		return
	}
	// The run is over; close the root span so the bundled tree is whole.
	sess.Trace.Root().End()
	f, err := os.Create(sess.obs.Bundle)
	Fail(err)
	Fail(sess.BuildBundle(steps, elapsed).WriteTar(f))
	Fail(f.Close())
	fmt.Printf("; wrote %s\n", sess.obs.Bundle)
}

// Protect runs the simulation body under the debug panic guard: if it
// panics, the flight ring is dumped to stderr and the partial recording
// flushed (still replayable) before the panic propagates.
func (sess *Session) Protect(f func() error) error {
	return debug.Protect(os.Stderr, sess.Flight, sess.Recorder, f)
}

// DumpFlightOnError dumps the flight ring to stderr when err is non-nil,
// so crashed simulations leave a post-mortem trail, and flushes the
// partial recording so the failed run stays replayable.
func (sess *Session) DumpFlightOnError(err error) {
	if err == nil {
		return
	}
	if sess.Flight != nil {
		Log().Error("simulation error; dumping flight recorder", "err", err)
		_ = sess.Flight.Dump(os.Stderr)
	}
	if sess.Recorder != nil {
		if ferr := sess.Recorder.Flush(); ferr == nil {
			Log().Info("partial recording flushed (still replayable)",
				"file", sess.obs.RecordOut, "high_water_cycle", sess.Recorder.HighWater())
		}
	}
}

// Close finishes the run: it releases pending live-server requests
// against the final state and writes the requested profiler outputs.
// Exits on write errors.
func (sess *Session) Close() {
	if sess.Server != nil {
		sess.Server.Finish()
	}
	if sess.Recorder != nil {
		Fail(sess.Recorder.Close())
		fmt.Printf("; wrote %s\n", sess.obs.RecordOut)
	}
	write := func(name string, emit func(f *os.File) error) {
		f, err := os.Create(name)
		Fail(err)
		Fail(emit(f))
		Fail(f.Close())
		fmt.Printf("; wrote %s\n", name)
	}
	if sess.Analyzer != nil {
		rep := sess.Analyzer.Report()
		if sess.obs.Analyze {
			Fail(rep.WriteText(os.Stdout))
		}
		if sess.obs.AnalyzeJSON != "" {
			write(sess.obs.AnalyzeJSON, func(f *os.File) error { return rep.WriteJSON(f) })
		}
		if sess.obs.AnalyzeHTML != "" {
			write(sess.obs.AnalyzeHTML, func(f *os.File) error { return rep.WriteHTML(f) })
		}
	}
	if sess.Cover != nil && (sess.obs.Cov || sess.obs.CovJSON != "" || sess.obs.CovHTML != "") {
		rep, err := sess.Cover.Map().Resolve(sess.Cover.Snapshot())
		Fail(err)
		if sess.obs.Cov {
			Fail(rep.WriteText(os.Stdout))
		}
		if sess.obs.CovJSON != "" {
			write(sess.obs.CovJSON, func(f *os.File) error { return rep.WriteJSON(f) })
		}
		if sess.obs.CovHTML != "" {
			write(sess.obs.CovHTML, func(f *os.File) error { return rep.WriteHTML(f) })
		}
	}
	if sess.Profiler == nil {
		return
	}
	if sess.obs.ProfileOut != "" {
		write(sess.obs.ProfileOut, func(f *os.File) error { return sess.Profiler.WritePprof(f) })
	}
	if sess.obs.FoldedOut != "" {
		write(sess.obs.FoldedOut, func(f *os.File) error { return sess.Profiler.WriteFolded(f) })
	}
	if sess.obs.Top > 0 {
		Fail(sess.Profiler.WriteTop(os.Stdout, sess.obs.Top))
	}
}

// Wait blocks forever when a live server is running, so the final state
// stays inspectable after the run; it returns immediately otherwise.
func (sess *Session) Wait() {
	if sess.srvL == nil {
		return
	}
	Log().Info("run finished; still serving (interrupt to exit)",
		"url", "http://"+sess.srvL.Addr().String()+"/")
	select {}
}
