// Command bench is golisa's end-to-end benchmark. It sets up one
// workload, then runs one closed-loop client on one goroutine for a fixed
// host-time duration. Every job goes from assembly source text to a result
// checked against the golden reference (the interpretive engine's cycles,
// halt flag and state hash), and the run ends with one JSON line holding
// every end-to-end metric, or with -trace 1 every per-layer metric.
//
// Simulated time is counted in cycles (control steps) of the modelled DSP;
// host time is seconds on the machine running the benchmark. The two are
// named apart everywhere.
//
//	bash bench/run.sh -workload kernels -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kernels, observed, generated or retarget")
	seed := flag.Uint64("seed", 1, "seed choosing the job order")
	seconds := flag.Float64("seconds", 20, "host seconds of the timed phase")
	traced := flag.Int("trace", 0, "1 runs a traced run that prints the per-layer metrics instead")
	spans := flag.String("spans", "", "span document of a traced run (default .bench_build/spans-<workload>.json)")
	runs := flag.Int("runs", 0, "calibrate: run the benchmark this many times, seeds seed, seed+1, ..., and print each metric's median and IQR")
	regen := flag.Bool("regen-golden", false, "print the golden reference, produced by the interpretive engine")
	flag.Parse()
	// One client on one goroutine: with a single P the garbage collector
	// runs on the job's own core, so a job pays for the heap work it causes
	// and the result does not depend on how busy the other cores are.
	runtime.GOMAXPROCS(1)

	if *regen {
		fail(regenGolden(os.Stdout))
		return
	}
	w, err := findWorkload(*name)
	fail(err)
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace takes 0 or 1, not %d", *traced))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	if *runs > 0 {
		fail(calibrate(*runs, *seed, "-workload", w.name, "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*traced)))
		return
	}
	g, err := loadGolden()
	fail(err)
	cfg := &config{seed: *seed, maxSteps: maxSteps, golden: g}
	d := time.Duration(*seconds * float64(time.Second))

	warmUp(300 * time.Millisecond)
	var res *result
	var lines []string
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		res, lines, err = tracedRun(w, cfg, d, path)
	} else {
		res, lines, err = measure(w, cfg, d)
	}
	fail(err)
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	fail(err)
	fmt.Println(string(out))
}

// warmUp keeps the client's core busy for d before anything is timed. On
// the virtual machine the baseline comes from, a core that had been idle
// ran its first ~0.15 s of work at about half speed: the first eight
// retarget set-ups of a run took 18 ms and the rest 8 ms, while after a
// 0.3 s spin every set-up took 8 ms.
func warmUp(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// e2eMetrics names the end-to-end metrics in print order, with units.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"rss_mb", "MiB"},
}

// timedSetup runs one set-up of w from a collected heap, timed with the
// host's speed read around and during it.
func timedSetup(w *workload, cfg *config, pool []entry, hs *hostSpeed) (runner, interval, error) {
	runtime.GC()
	var r runner
	var err error
	iv, _ := hs.time(0, func() { r, err = w.setup(cfg, pool, nil, nil) })
	if err != nil {
		return nil, iv, fmt.Errorf("set up %s: %w", w.name, err)
	}
	return r, iv, nil
}

// measure is an untraced run: a set-up, then the timed closed loop with
// the workload's remaining set-ups spread evenly through it, between
// rounds, so that they meet the same host as the jobs. Their host time is
// not part of the loop's.
func measure(w *workload, cfg *config, d time.Duration) (*result, []string, error) {
	pool := w.pool()
	hs := newHostSpeed()
	defer hs.close()
	r, first, err := timedSetup(w, cfg, pool, hs)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	setups := []interval{first}
	between := func(spent time.Duration) error {
		for len(setups) < w.setups && spent >= time.Duration(len(setups))*d/time.Duration(w.setups) {
			extra, iv, err := timedSetup(w, cfg, pool, hs)
			if err != nil {
				return err
			}
			extra.close()
			setups = append(setups, iv)
		}
		runtime.GC()
		return nil
	}
	runtime.GC()
	t, err := loop(r, pool, newSequence(pool, cfg.seed), d, hs, nil, nil, between)
	if err == nil {
		err = between(d) // any set-up the last round left due
	}
	if err != nil {
		return nil, nil, err
	}
	vals := e2eValues(setups, t)
	res := t.result()
	lines := t.summary(w.name, cfg.seed)
	raw, scaled := make([]float64, len(setups)), make([]float64, len(setups))
	for k, s := range setups {
		raw[k], scaled[k] = s.host.Seconds(), s.scaled()
	}
	lines = append(lines,
		fmt.Sprintf("set-up host s: %.4f", raw),
		fmt.Sprintf("set-up host s at full host speed: %.4f", scaled),
		fmt.Sprintf("host speed: the jobs took %.1f%% of the host time they take at full speed (probe reading %.2f)",
			100/t.scaledShare(), fullSpeed),
		fmt.Sprintf("peak RSS over the whole process (getrusage maxrss): %.1f MiB", peakRSSMiB()))
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		lines = append(lines, fmt.Sprintf("%-20s %14.4f %s", m.name, vals[m.name], m.unit))
	}
	return res, lines, nil
}

// e2eValues computes the end-to-end metrics of a run from its set-ups and
// the tally of its timed phase, every host time scaled to full host speed
// (see hostspeed.go). The throughputs count every attempted job's host
// time, failed ones included, and only verified jobs and their cycles; the
// quantiles run over the verified jobs.
func e2eValues(setups []interval, t *tally) map[string]float64 {
	secs := make([]float64, len(setups))
	for k, s := range setups {
		secs[k] = s.scaled()
	}
	busy, cycles := 0.0, uint64(0)
	var lat []float64
	for _, j := range t.jobs {
		s := j.scaled()
		busy += s
		if j.ok {
			lat = append(lat, s*1e3)
			cycles += j.cycles
		}
	}
	return map[string]float64{
		"setup_s":           median(secs),
		"jobs_per_s":        float64(t.verified()) / busy,
		"sim_mcycles_per_s": float64(cycles) / busy / 1e6,
		"job_p50_ms":        quantile(lat, 0.5),
		"job_p90_ms":        quantile(lat, 0.9),
		"rss_mb":            median(t.rss),
	}
}

// jobRec is one attempted job.
type jobRec struct {
	interval
	ok     bool   // verified
	cycles uint64 // simulated cycles, when verified
}

// tally counts one closed-loop phase.
type tally struct {
	attempted, failed int
	jobs              []jobRec
	rss               []float64 // resident MiB at each round's end
	elapsed           time.Duration
	errs              []string
}

func (t *tally) verified() int { return t.attempted - t.failed }

// jobsPerS is verified jobs per host second of all the phase's jobs,
// unscaled.
func (t *tally) jobsPerS() float64 {
	var busy time.Duration
	for _, j := range t.jobs {
		busy += j.host
	}
	return float64(t.verified()) / busy.Seconds()
}

// scaledShare is the jobs' host time at full host speed over their host
// time.
func (t *tally) scaledShare() float64 {
	var host, scaled float64
	for _, j := range t.jobs {
		host += j.host.Seconds()
		scaled += j.scaled()
	}
	return scaled / host
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

func (t *tally) result() *result {
	return &result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
}

func (t *tally) summary(name string, seed uint64) []string {
	lines := []string{fmt.Sprintf("workload %s seed %d: %d jobs attempted, %d verified, %d failed in %.3f host s",
		name, seed, t.attempted, t.verified(), t.failed, t.elapsed.Seconds())}
	for _, e := range t.errs {
		lines = append(lines, "failed: "+e)
	}
	return lines
}

// loop runs jobs from seq back to back (one client, closed loop), round
// after round, until a round ends after d of host time, reading the
// host's speed with hs (nil: not at all). Whole rounds give every seed the
// same program mix, so the seed moves no metric. When between is not nil
// it runs after every round but the last, given the host time the rounds
// have taken so far; its own host time does not count towards d.
func loop(r runner, pool []entry, seq *sequence, d time.Duration, hs *hostSpeed, tr *tracer, parent *span, between func(spent time.Duration) error) (*tally, error) {
	t := &tally{}
	var spent time.Duration
	var last float64
	for {
		t0 := time.Now()
		for {
			last = t.run(r, pool, seq.next(), hs, last, tr, parent)
			if seq.roundDone() {
				break
			}
		}
		spent += time.Since(t0)
		if mib, err := residentMiB(); err == nil {
			t.rss = append(t.rss, mib)
		}
		if spent >= d {
			break
		}
		if between != nil {
			if err := between(spent); err != nil {
				return nil, err
			}
			last = 0
		}
	}
	t.elapsed = spent
	return t, nil
}

// run executes pool entry i as one job and records it, timed with hs from
// the reading pre (see hostSpeed.time); it returns the closing reading. A
// failed job's host time counts; the job counts as attempted only.
func (t *tally) run(r runner, pool []entry, i int, hs *hostSpeed, pre float64, tr *tracer, parent *span) float64 {
	sp := tr.start(parent, "job")
	sp.attr("entry", pool[i].Name)
	var n uint64
	var err error
	iv, post := hs.time(pre, func() { n, err = r.job(i, tr, sp) })
	sp.end()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", pool[i].Name, err))
		}
		n = 0
	}
	t.jobs = append(t.jobs, jobRec{interval: iv, ok: err == nil, cycles: n})
	return post
}

// residentMiB is the benchmark process's resident set size now. Runner
// subprocesses are not included. The peak (getrusage maxrss) swings by
// a third between runs with the garbage collector's timing on this
// small heap, the resident size at round ends by about 1%.
func residentMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
