package fleet

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"golisa/internal/cover"
	"golisa/internal/otrace"
)

// latencyBuckets are the upper bounds (seconds) of the exposed job
// latency histogram, chosen to bracket typical simulation jobs
// (sub-millisecond smokes up to multi-second sweeps).
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics accumulates fleet counters across every batch it accounts
// for, exported in Prometheus text exposition format (the debug
// server's /batch/metrics endpoint). A finished batch is folded in from
// its Summary (Add). A batch a Service runs with this collector is also
// read live, off its span tree at scrape time: its open job:<name> spans
// are the in-flight gauge, and its ended ones count as finished jobs
// (failed when the span carries an error, their durations in the
// latency histogram) until the finished summary replaces them. Safe for
// concurrent use.
type Metrics struct {
	mu sync.Mutex

	batches uint64    // finished batches
	done    jobCounts // jobs of finished batches
	live    map[*liveBatch]bool

	// Artifact-sharing counters aggregated from batch summaries: the
	// build-once work versus what jobs re-did at run time.
	prewarmDecodes   uint64
	artifactCompiles uint64
	jobDecodes       uint64
	jobCompiles      uint64

	// Per-cause penalty cycles over analyzed jobs.
	penalty map[string]uint64

	// Union of every covered batch's coverage snapshot (batches run with
	// Options.Cover). Nil until the first covered batch; a snapshot with
	// a different fingerprint (model changed under the server) resets
	// the union rather than corrupting it.
	cov *cover.Snapshot

	// lastTraceID is the most recent batch's trace identity, exposed as
	// an exemplar-style info gauge so a scrape can be joined to the
	// NDJSON stream / perf records / Chrome timeline of the batch that
	// produced the current counter values.
	lastTraceID string
}

// jobCounts tallies finished jobs: outcomes and the histogram of their
// run times.
type jobCounts struct {
	jobs, failed uint64
	// buckets[i] counts run times <= latencyBuckets[i], non-cumulative
	// (cumulated at exposition time); the last slot counts the ones
	// above every bound.
	buckets [len(latencyBuckets) + 1]uint64
	seconds float64
}

func (c *jobCounts) add(runFor time.Duration, failed bool) {
	c.jobs++
	if failed {
		c.failed++
	}
	sec := runFor.Seconds()
	c.seconds += sec
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	c.buckets[i]++
}

// liveBatch is a running batch: the trace it runs under and how many
// spans that trace held before it began, so only its own spans count.
type liveBatch struct {
	tr   *otrace.Trace
	from int
}

// NewMetrics creates an empty fleet metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{live: map[*liveBatch]bool{}, penalty: map[string]uint64{}}
}

// Add folds a finished batch's summary into the collector.
func (m *Metrics) Add(sum *Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastTraceID = sum.TraceID
	m.add(sum)
}

// begin starts reading a batch about to run under tr live.
func (m *Metrics) begin(tr *otrace.Trace) *liveBatch {
	b := &liveBatch{tr: tr, from: tr.Len()}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live[b] = true
	m.lastTraceID = tr.ID().String()
	return b
}

// end stops reading b live and folds in its summary (nil when the batch
// could not start) under the same lock, so a scrape counts every job
// exactly once: on the live span tree or in the summary.
func (m *Metrics) end(b *liveBatch, sum *Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.live, b)
	if sum != nil {
		m.add(sum)
	}
}

// add folds in a finished batch; the caller holds m.mu.
func (m *Metrics) add(sum *Summary) {
	m.batches++
	for i := range sum.Results {
		m.done.add(sum.Results[i].RunFor, sum.Results[i].Err != "")
	}
	m.prewarmDecodes += sum.PrewarmDecodes
	m.artifactCompiles += sum.ArtifactCompiles
	m.jobDecodes += sum.JobDecodes
	m.jobCompiles += sum.JobCompiles
	for cause, n := range sum.Penalty {
		m.penalty[cause] += n
	}
	if sum.Coverage != nil {
		if m.cov == nil || m.cov.Merge(sum.Coverage) != nil {
			m.cov = sum.Coverage.Clone()
		}
	}
}

// WriteText emits the collector's state in Prometheus text exposition
// format: HELP and TYPE headers per family, counters, one gauge, and a
// conventional histogram (cumulative le-labeled buckets, _sum, _count).
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs, inFlight := m.done, 0
	for b := range m.live {
		for _, sp := range b.tr.Export().Spans[b.from:] {
			if !strings.HasPrefix(sp.Name, "job:") {
				continue
			}
			if !sp.Ended {
				inFlight++
				continue
			}
			_, failed := sp.Attrs["error"]
			jobs.add(time.Duration(math.Round(sp.DurUs*1e3)), failed)
		}
	}
	ew := &metricsErrWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(ew, format, args...) }
	head := func(name, help, typ string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s %s\n", name, typ)
	}

	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"lisa_fleet_batches_total", "Batches run.", m.batches + uint64(len(m.live))},
		{"lisa_fleet_jobs_total", "Jobs finished, success or failure.", jobs.jobs},
		{"lisa_fleet_jobs_failed_total", "Jobs that finished with an error.", jobs.failed},
		{"lisa_fleet_prewarm_decodes_total", "Instruction decodes performed once on shared artifacts.", m.prewarmDecodes},
		{"lisa_fleet_artifact_compiles_total", "Behavior closures compiled once on shared artifacts.", m.artifactCompiles},
		{"lisa_fleet_job_decodes_total", "Run-time decodes jobs performed themselves (0 when fully pre-warmed).", m.jobDecodes},
		{"lisa_fleet_job_compiles_total", "Run-time closure compiles jobs performed themselves.", m.jobCompiles},
	} {
		head(c.name, c.help, "counter")
		p("%s %d\n", c.name, c.value)
	}

	head("lisa_fleet_jobs_in_flight", "Jobs currently running on a worker.", "gauge")
	p("lisa_fleet_jobs_in_flight %d\n", inFlight)

	// Exemplar-style info gauge: the label carries the identity, the
	// value is always 1. Only present once a traced batch ran, keeping
	// earlier expositions byte-identical.
	if m.lastTraceID != "" {
		head("lisa_fleet_last_batch_trace_info", "Trace ID of the most recent batch (join key into NDJSON streams, perf records and Chrome timelines).", "gauge")
		p("lisa_fleet_last_batch_trace_info{trace_id=\"%s\"} 1\n", promLabelEscape(m.lastTraceID))
	}

	head("lisa_fleet_job_latency_seconds", "Per-job run latency (worker pickup to finish).", "histogram")
	var cum uint64
	for i, bound := range latencyBuckets {
		cum += jobs.buckets[i]
		p("lisa_fleet_job_latency_seconds_bucket{le=\"%s\"} %d\n", formatBound(bound), cum)
	}
	p("lisa_fleet_job_latency_seconds_bucket{le=\"+Inf\"} %d\n", jobs.jobs)
	p("lisa_fleet_job_latency_seconds_sum %g\n", jobs.seconds)
	p("lisa_fleet_job_latency_seconds_count %d\n", jobs.jobs)

	head("lisa_fleet_penalty_cycles_total", "Aggregated per-cause penalty cycles over analyzed jobs.", "counter")
	causes := make([]string, 0, len(m.penalty))
	for c := range m.penalty {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		p("lisa_fleet_penalty_cycles_total{cause=\"%s\"} %d\n", promLabelEscape(c), m.penalty[c])
	}

	// Coverage gauges appear only once a covered batch ran, so batches
	// without Options.Cover keep the exposition byte-identical to PR 6.
	if m.cov != nil {
		head("lisa_cover_items", "Coverable model items per domain (unreachable leaves excluded).", "gauge")
		for _, d := range m.cov.Domains {
			p("lisa_cover_items{domain=\"%s\"} %d\n", promLabelEscape(d.Name), d.Total)
		}
		head("lisa_cover_covered", "Model items covered so far per domain, unioned over covered batches.", "gauge")
		for _, d := range m.cov.Domains {
			p("lisa_cover_covered{domain=\"%s\"} %d\n", promLabelEscape(d.Name), d.Covered)
		}
	}
	return ew.err
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal representation, never scientific notation for these
// magnitudes.
func formatBound(b float64) string {
	s := fmt.Sprintf("%g", b)
	return s
}

// promLabelEscape escapes a label value per the Prometheus text
// exposition format (mirrors trace's promEscape; duplicated to keep the
// dependency direction fleet → trace unidirectional at the event layer).
func promLabelEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// metricsErrWriter latches the first write error.
type metricsErrWriter struct {
	w   io.Writer
	err error
}

func (e *metricsErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
