package fleet

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"golisa/internal/core"
	"golisa/internal/sim"
)

// The Prometheus text exposition format, parsed strictly — the same
// harness discipline as internal/trace/prom_test.go, extended to fold a
// histogram's _bucket/_sum/_count samples into their declared family.
var (
	fleetMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	fleetLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type fleetPromFamily struct {
	name    string
	help    bool
	typ     string
	samples int
}

// parseFleetExposition validates an exposition payload line by line and
// returns the families in order of appearance, failing the test on any
// spec violation.
func parseFleetExposition(t *testing.T, text string) []*fleetPromFamily {
	t.Helper()
	var fams []*fleetPromFamily
	byName := map[string]*fleetPromFamily{}
	family := func(name string) *fleetPromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &fleetPromFamily{name: name}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end in a line feed")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without docstring: %q", ln+1, line)
			}
			if !fleetMetricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
			f := family(name)
			if f.help || f.typ != "" || f.samples > 0 {
				t.Fatalf("line %d: HELP for %q must precede TYPE and samples", ln+1, name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without type: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			f := family(name)
			if f.typ != "" {
				t.Fatalf("line %d: second TYPE for %q", ln+1, name)
			}
			if f.samples > 0 {
				t.Fatalf("line %d: TYPE for %q after its samples", ln+1, name)
			}
			f.typ = typ
		case strings.HasPrefix(line, "#"):
			continue // comment
		default:
			name := parseFleetSample(t, ln+1, line)
			f, ok := byName[name]
			if !ok {
				// A histogram family owns its _bucket/_sum/_count samples.
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if base, cut := strings.CutSuffix(name, suf); cut {
						if bf, declared := byName[base]; declared && bf.typ == "histogram" {
							f = bf
							break
						}
					}
				}
			}
			if f == nil {
				f = family(name)
			}
			f.samples++
		}
	}
	return fams
}

// parseFleetSample validates one `name{labels} value` line and returns the
// metric name.
func parseFleetSample(t *testing.T, ln int, line string) string {
	t.Helper()
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !fleetMetricNameRe.MatchString(name) {
		t.Fatalf("line %d: bad metric name in %q", ln, line)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		parseFleetLabels(t, ln, rest[1:end])
		rest = rest[end+1:]
	}
	value := strings.TrimPrefix(rest, " ")
	if value == rest {
		t.Fatalf("line %d: no space before value: %q", ln, line)
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		t.Fatalf("line %d: unparsable value %q: %v", ln, value, err)
	}
	return name
}

// parseFleetLabels validates the inside of a {...} label set.
func parseFleetLabels(t *testing.T, ln int, s string) {
	t.Helper()
	for s != "" {
		eq := strings.Index(s, "=")
		if eq < 0 {
			t.Fatalf("line %d: label without '=': %q", ln, s)
		}
		lname := s[:eq]
		if !fleetLabelNameRe.MatchString(lname) {
			t.Fatalf("line %d: bad label name %q", ln, lname)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			t.Fatalf("line %d: unquoted label value after %q", ln, lname)
		}
		s = s[1:]
		for {
			if s == "" {
				t.Fatalf("line %d: unterminated label value for %q", ln, lname)
			}
			switch s[0] {
			case '\\':
				if len(s) < 2 || !strings.ContainsRune(`\"n`, rune(s[1])) {
					t.Fatalf("line %d: illegal escape %q in label %q", ln, s[:2], lname)
				}
				s = s[2:]
				continue
			case '"':
				s = s[1:]
			default:
				s = s[1:]
				continue
			}
			break
		}
		if s == "" {
			return
		}
		if !strings.HasPrefix(s, ",") {
			t.Fatalf("line %d: expected ',' between labels, got %q", ln, s)
		}
		s = s[1:]
	}
}

// sampleValue extracts the value of the first sample line starting with
// prefix (the full name plus any labels, unambiguous in this exposition).
func sampleValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample with prefix %q in:\n%s", prefix, text)
	return 0
}

// TestFleetMetricsExposition runs instrumented batches through one Metrics
// collector and validates the whole /batch/metrics payload against the
// strict exposition parser: every family has HELP then TYPE then samples
// with the declared type, the histogram's buckets are cumulative and agree
// with its count, and the counters carry the real batch outcomes.
func TestFleetMetricsExposition(t *testing.T) {
	mc, err := core.LoadMachine("stall16", stall16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	jobs := []Job{
		{Name: "a", Source: stallProg},
		{Name: "b", Source: stallProg},
		{Name: "bad"}, // fails: no source
	}
	sum, err := Run(mc, sim.Compiled, jobs, Options{Workers: 2, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Add(sum)
	// A second batch proves cross-batch accumulation.
	if sum, err = Run(mc, sim.Compiled, jobs[:2], Options{Workers: 1, Analyze: true}); err != nil {
		t.Fatal(err)
	}
	m.Add(sum)

	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fams := parseFleetExposition(t, out)

	wantTypes := map[string]string{
		"lisa_fleet_batches_total":           "counter",
		"lisa_fleet_jobs_total":              "counter",
		"lisa_fleet_jobs_failed_total":       "counter",
		"lisa_fleet_prewarm_decodes_total":   "counter",
		"lisa_fleet_artifact_compiles_total": "counter",
		"lisa_fleet_job_decodes_total":       "counter",
		"lisa_fleet_job_compiles_total":      "counter",
		"lisa_fleet_jobs_in_flight":          "gauge",
		"lisa_fleet_last_batch_trace_info":   "gauge",
		"lisa_fleet_job_latency_seconds":     "histogram",
		"lisa_fleet_penalty_cycles_total":    "counter",
	}
	byName := map[string]*fleetPromFamily{}
	for _, f := range fams {
		byName[f.name] = f
		if !f.help {
			t.Errorf("family %s has no HELP", f.name)
		}
		want, ok := wantTypes[f.name]
		if !ok {
			t.Errorf("unexpected family %s", f.name)
			continue
		}
		if f.typ != want {
			t.Errorf("family %s has type %q, want %q", f.name, f.typ, want)
		}
		if f.samples == 0 {
			t.Errorf("family %s has no samples", f.name)
		}
	}
	for name := range wantTypes {
		if byName[name] == nil {
			t.Errorf("missing family %s", name)
		}
	}

	// Counter and gauge values reflect the two batches.
	if v := sampleValue(t, out, "lisa_fleet_batches_total "); v != 2 {
		t.Errorf("batches_total = %v, want 2", v)
	}
	if v := sampleValue(t, out, "lisa_fleet_jobs_total "); v != 5 {
		t.Errorf("jobs_total = %v, want 5", v)
	}
	if v := sampleValue(t, out, "lisa_fleet_jobs_failed_total "); v != 1 {
		t.Errorf("jobs_failed_total = %v, want 1", v)
	}
	if v := sampleValue(t, out, "lisa_fleet_jobs_in_flight "); v != 0 {
		t.Errorf("jobs_in_flight = %v, want 0 after the batches", v)
	}

	// The trace-info gauge joins the scrape to the last batch: value 1,
	// identity in the label, a well-formed 32-hex trace id.
	if v := sampleValue(t, out, "lisa_fleet_last_batch_trace_info{"); v != 1 {
		t.Errorf("last_batch_trace_info = %v, want 1", v)
	}
	traceInfoRe := regexp.MustCompile(`lisa_fleet_last_batch_trace_info\{trace_id="([0-9a-f]{32})"\} 1`)
	if !traceInfoRe.MatchString(out) {
		t.Errorf("trace-info gauge lacks a 32-hex trace_id label in:\n%s", out)
	}

	// Histogram invariants: cumulative buckets ending at +Inf == _count.
	var last float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lisa_fleet_job_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
	if count := sampleValue(t, out, "lisa_fleet_job_latency_seconds_count "); count != 5 || last != count {
		t.Errorf("histogram count = %v, +Inf bucket = %v, want both 5", count, last)
	}
	if !strings.Contains(out, `lisa_fleet_job_latency_seconds_bucket{le="+Inf"}`) {
		t.Error("histogram lacks the +Inf bucket")
	}

	// Analyzed stalls surface as cause-labeled penalty counters.
	if !strings.Contains(out, `lisa_fleet_penalty_cycles_total{cause="`) {
		t.Errorf("no penalty cause samples in:\n%s", out)
	}
}

// spin loops until the step limit: a job that stays in flight long
// enough to be scraped while it runs.
const spin = "LDI B1, 1\nloop: BNZ B1, loop\nNOP\nNOP\nHALT\n"

// TestFleetMetricsLive scrapes a Service's collector from inside
// OnResult, while the batch is still running: jobs, failures, the
// latency histogram and the in-flight gauge are read off the live span
// tree.
func TestFleetMetricsLive(t *testing.T) {
	mc, src := loadFIR(t)
	scrape := func(m *Metrics) string {
		var buf bytes.Buffer
		if err := m.WriteText(&buf); err != nil {
			t.Error(err)
		}
		return buf.String()
	}

	// One worker: when the first job finishes, the next one has not
	// started, so one job is done and none is in flight.
	m := NewMetrics()
	sv := &Service{Machine: mc, Mode: sim.CompiledPrebound, Metrics: m}
	var first string
	onResult := func(job int, r *Result) {
		if first == "" {
			first = scrape(m)
		}
	}
	if _, err := sv.Run(&Manifest{Workers: 1, Jobs: firJobs(src, 3)}, onResult, nil); err != nil {
		t.Fatal(err)
	}
	for prefix, want := range map[string]float64{
		"lisa_fleet_batches_total ":                         1,
		"lisa_fleet_jobs_total ":                            1,
		`lisa_fleet_job_latency_seconds_bucket{le="+Inf"} `: 1,
		"lisa_fleet_jobs_in_flight ":                        0,
	} {
		if v := sampleValue(t, first, prefix); v != want {
			t.Errorf("first-result scrape: %s= %v, want %v", prefix, v, want)
		}
	}
	if v := sampleValue(t, scrape(m), "lisa_fleet_jobs_total "); v != 3 {
		t.Errorf("after the batch: jobs_total %v, want 3", v)
	}

	// Two workers: while the short job's result is delivered, the long
	// one is running on the other worker.
	m = NewMetrics()
	sv.Metrics = m
	var inFlight float64
	onResult = func(job int, r *Result) {
		if job != 0 {
			return
		}
		// The other worker opens its job span on its own schedule; give
		// it until the long job would be long done.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if inFlight = sampleValue(t, scrape(m), "lisa_fleet_jobs_in_flight "); inFlight == 1 {
				return
			}
		}
	}
	jobs := []Job{{Name: "short", Source: "NOP\nHALT\n"}, {Name: "long", Source: spin, MaxSteps: 300_000}}
	sum, err := sv.Run(&Manifest{Workers: 2, Jobs: jobs}, onResult, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inFlight != 1 {
		t.Errorf("scrape during the long job: jobs_in_flight %v, want 1", inFlight)
	}
	if r := sum.Results[1]; r.Halted || r.Err != "" || r.Steps != 300_000 {
		t.Errorf("long job = %+v, want it stopped by the step limit", r)
	}
	if v := sampleValue(t, scrape(m), "lisa_fleet_jobs_in_flight "); v != 0 {
		t.Errorf("after the batch: jobs_in_flight %v, want 0", v)
	}
}

// TestFleetMetricsConcurrentScrape runs batches concurrently through one
// Service while another goroutine scrapes its collector: each job is
// counted exactly once, on its batch's live span tree or in the finished
// summary, so jobs_total never falls between scrapes and ends at the
// number of jobs run.
func TestFleetMetricsConcurrentScrape(t *testing.T) {
	mc, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	sv := &Service{Machine: mc, Mode: sim.CompiledPrebound, Metrics: m}
	const clients, batches, jobsPer = 4, 3, 3
	man := &Manifest{Workers: 2}
	for i := 0; i < jobsPer; i++ {
		man.Jobs = append(man.Jobs, Job{Source: spin, MaxSteps: 2000})
	}

	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var last float64
		for {
			var buf bytes.Buffer
			if err := m.WriteText(&buf); err != nil {
				scraped <- err
				return
			}
			_, rest, _ := strings.Cut(buf.String(), "\nlisa_fleet_jobs_total ")
			line, _, _ := strings.Cut(rest, "\n")
			jobs, err := strconv.ParseFloat(line, 64)
			if err != nil {
				scraped <- fmt.Errorf("jobs_total sample %q: %v", line, err)
				return
			}
			if jobs < last {
				scraped <- fmt.Errorf("jobs_total fell from %v to %v", last, jobs)
				return
			}
			last = jobs
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := sv.Run(man, nil, nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for prefix, want := range map[string]float64{
		"lisa_fleet_batches_total ":  clients * batches,
		"lisa_fleet_jobs_total ":     clients * batches * jobsPer,
		"lisa_fleet_jobs_in_flight ": 0,
	} {
		if v := sampleValue(t, out, prefix); v != want {
			t.Errorf("%s= %v, want %v", prefix, v, want)
		}
	}
}
