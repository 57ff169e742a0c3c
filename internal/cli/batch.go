package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"golisa/internal/core"
	"golisa/internal/fleet"
	"golisa/internal/otrace"
	"golisa/internal/perf"
	"golisa/internal/sim"
)

// Batch is the -jobs/-workers/-batch-* flag group: batch simulation of
// many programs over one shared compiled-model artifact (internal/fleet),
// plus the fleet telemetry outputs (streaming progress, batch Chrome
// trace, fleet metrics).
type Batch struct {
	Jobs       string
	Workers    int
	JSONOut    string
	Analyze    bool
	Cover      bool
	Progress   bool
	TraceOut   string
	MetricsOut string

	// Perf/PerfLedger are not flags of this group: lisa-sim copies them
	// from the shared Obs -perf/-perf-ledger flags, so single-run and
	// batch modes share one spelling. Perf emits ledger records into the
	// summary; PerfLedger additionally appends them to a .lperf file.
	Perf       bool
	PerfLedger string

	// GenCache mirrors the shared Common -gen-cache flag (the generated-
	// mode runner cache directory), copied in by the tool like Perf.
	GenCache string
}

// Register defines the batch flags on fs.
func (b *Batch) Register(fs *flag.FlagSet) {
	fs.StringVar(&b.Jobs, "jobs", "", "batch mode: run every .s file in a directory, or the jobs of a JSON manifest")
	fs.IntVar(&b.Workers, "workers", 0, "batch worker goroutines (0 = GOMAXPROCS, overrides the manifest)")
	fs.StringVar(&b.JSONOut, "batch-json", "", "write the batch summary as JSON to this file")
	fs.BoolVar(&b.Analyze, "batch-analyze", false, "attach a hazard analyzer to every batch job")
	fs.BoolVar(&b.Cover, "batch-cover", false, "collect model coverage per job and union it into the batch summary")
	fs.BoolVar(&b.Progress, "batch-progress", false, "stream one NDJSON line per job to stdout as workers finish, then a summary record (replaces the human-readable table)")
	fs.StringVar(&b.TraceOut, "batch-trace", "", "write the whole batch as a Chrome trace-event JSON (one lane per worker) to this file")
	fs.StringVar(&b.MetricsOut, "batch-metrics", "", "write fleet metrics (Prometheus text) to this file after the batch")
}

// Run executes the batch named by -jobs under the given trace (nil mints
// a fresh one). The command line supplies the defaults (model, mode, step
// cap); a JSON manifest's own model, mode, workers and max fields
// override them, and -workers in turn overrides the manifest. Per-job
// failures are reported in the summary and the returned error, not
// fatally.
func (b *Batch) Run(tr *otrace.Trace, mc *core.Machine, mode sim.Mode, max uint64) error {
	man, err := fleet.LoadManifest(b.Jobs)
	if err != nil {
		return err
	}
	if man.Model != "" && man.Model != mc.Model.Name {
		mc = LoadModel(man.Model)
	}
	if man.Mode != "" {
		if mode, err = sim.ParseMode(man.Mode); err != nil {
			return err
		}
	}
	opt := fleet.Options{Workers: man.Workers, MaxSteps: man.Max, Analyze: b.Analyze || man.Analyze, Cover: b.Cover || man.Cover, Perf: b.Perf || b.PerfLedger != "" || man.Perf, MaxPrints: man.MaxPrints, GenCache: b.GenCache}
	if b.Workers > 0 {
		opt.Workers = b.Workers
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = max
	}

	// The whole batch runs under one trace: every sink, perf record and
	// timeline lane below reads its spans and carries its TraceID.
	if tr == nil {
		tr = otrace.New(Tool + " batch")
	}
	opt.Trace = tr
	if b.TraceOut != "" {
		opt.Chrome = fleet.NewChromeSpans()
	}
	var stream *fleet.Streamer
	if b.Progress {
		stream = fleet.NewStreamer(os.Stdout)
		opt.OnResult = stream.WriteJob
	}

	sum, err := fleet.Run(mc, mode, man.Jobs, opt)
	if err != nil {
		return err
	}
	if stream != nil {
		stream.WriteSummary(sum)
		if stream.Err() != nil {
			return stream.Err()
		}
	}

	if !b.Progress {
		fmt.Printf("; batch %s: %d jobs on %d workers, model %s, %s mode\n",
			b.Jobs, sum.Jobs, sum.Workers, sum.Model, sum.Mode)
		fmt.Printf("; trace %s\n", sum.TraceID)
		fmt.Printf("; artifact: %d prewarm decodes, %d compiles, %d cached words; jobs re-did %d decodes, %d compiles\n",
			sum.PrewarmDecodes, sum.ArtifactCompiles, sum.CachedWords, sum.JobDecodes, sum.JobCompiles)
		if sum.GenNative > 0 || sum.GenFallback > 0 {
			fmt.Printf("; generated tier: %d native runs, %d IR fallbacks, %d runner builds\n",
				sum.GenNative, sum.GenFallback, sum.RunnerBuilds)
		}
		for _, r := range sum.Results {
			status := "ok"
			switch {
			case r.Err != "":
				status = "ERROR " + r.Err
			case !r.Halted:
				status = "step limit"
			}
			fmt.Printf("%-20s %10d steps  %s\n", r.Name, r.Steps, status)
			for _, msg := range r.Prints {
				fmt.Printf("  | %s\n", msg)
			}
			if r.PrintsTruncated {
				fmt.Printf("  | ... (prints truncated at %d lines)\n", len(r.Prints))
			}
		}
		for _, cause := range sum.SortedPenaltyCauses() {
			fmt.Printf("; penalty[%s] = %d cycles\n", cause, sum.Penalty[cause])
		}
		if sum.Coverage != nil {
			for _, d := range sum.Coverage.Domains {
				pct := 100.0
				if d.Total > 0 {
					pct = 100 * float64(d.Covered) / float64(d.Total)
				}
				fmt.Printf("; coverage[%s] = %d/%d (%.1f%%)\n", d.Name, d.Covered, d.Total, pct)
			}
		}
		lat := sum.Latency
		fmt.Printf("; job latency p50 %v p90 %v p99 %v max %v; %.1f jobs/sec, %.0f%% worker utilization\n",
			lat.P50.Round(time.Microsecond), lat.P90.Round(time.Microsecond),
			lat.P99.Round(time.Microsecond), lat.Max.Round(time.Microsecond),
			lat.JobsPerSec, lat.Utilization*100)
		fmt.Printf("; %d total steps in %v wall\n", sum.TotalSteps, sum.Elapsed.Round(time.Microsecond))
		if len(sum.Perf) > 0 {
			fmt.Printf("; perf: %d ledger records (one per job + batch)\n", len(sum.Perf))
		}
	}

	if b.PerfLedger != "" && len(sum.Perf) > 0 {
		n, err := perf.AppendUnique(b.PerfLedger, sum.Perf...)
		if err != nil {
			return err
		}
		if !b.Progress {
			fmt.Printf("; appended %d perf records to %s\n", n, b.PerfLedger)
		}
	}

	if opt.Chrome != nil {
		if err := writeFile(b.TraceOut, opt.Chrome.WriteJSON); err != nil {
			return err
		}
	}
	if b.MetricsOut != "" {
		fm := fleet.NewMetrics()
		fm.Add(sum)
		if err := writeFile(b.MetricsOut, fm.WriteText); err != nil {
			return err
		}
	}

	if b.JSONOut != "" {
		err := writeFile(b.JSONOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(sum)
		})
		if err != nil {
			return err
		}
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", sum.Failed, sum.Jobs)
	}
	return nil
}

// writeFile creates name and runs emit against it, closing in all paths.
func writeFile(name string, emit func(w io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
