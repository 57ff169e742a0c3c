package fleet

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"golisa/internal/otrace"
	"golisa/internal/trace"
)

// ChromeSpans renders a whole batch as one Chrome trace-event JSON
// (chrome://tracing, Perfetto), read off the batch's span tree: the
// batch-level build phases (assembly, artifact prewarm) on a "batch"
// lane, and every job as a duration slice on the lane of the worker that
// ran it, so queueing gaps, stragglers and worker imbalance are visible
// on a single timeline. It complements trace.ChromeTracer, which renders
// the cycles *inside* one simulation; ChromeSpans renders the jobs
// *around* them — and with AddSim (fleet.Options.Chrome) the per-job
// cycle lanes are merged into the same document as their own process
// groups, rebased onto the job spans, so one Perfetto load shows the
// fleet and the simulated pipelines on one timeline under one trace ID.
// Timestamps are offsets from the trace's epoch, the start_us of the
// span tree. One batch per collector; not safe for concurrent use.
type ChromeSpans struct {
	events  []trace.ChromeEvent
	traceID string
}

// Lane numbering: the fleet process is pid 1 (batch lane tid 0, worker w
// on tid w+1); job j's simulation lanes become process pid j+2 via
// AddSim. Every process and thread carries an explicit sort index so the
// merged document renders fleet-first, jobs-in-order instead of the
// viewer's load-order heuristics — the fix for the disjoint process
// groups the separate pid/tid schemes used to produce.
const (
	spanPid  = 1
	batchTid = 0
	// simPidBase is the pid of job 0's simulation lanes.
	simPidBase = 2
)

// NewChromeSpans creates an empty batch span collector.
func NewChromeSpans() *ChromeSpans { return &ChromeSpans{} }

// us converts a span offset to Chrome trace microseconds, exactly as
// otrace renders start_us and dur_us.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func (c *ChromeSpans) meta(tid int, name string) {
	c.events = append(c.events,
		trace.ChromeEvent{Name: "thread_name", Ph: "M", Pid: spanPid, Tid: tid,
			Args: map[string]any{"name": name}},
		trace.ChromeEvent{Name: "thread_sort_index", Ph: "M", Pid: spanPid, Tid: tid,
			Args: map[string]any{"sort_index": tid}},
	)
}

// processMeta names and orders one process group of the merged document.
func (c *ChromeSpans) processMeta(pid int, name string, sortIndex int) {
	args := map[string]any{"name": name}
	if c.traceID != "" {
		args["trace_id"] = c.traceID
	}
	c.events = append(c.events,
		trace.ChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0, Args: args},
		trace.ChromeEvent{Name: "process_sort_index", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"sort_index": sortIndex}},
	)
}

// AddBatch renders a finished batch's fleet lanes from doc, the export
// of the trace the batch ran under, and sum, its summary. The children
// of the batch span (sum.SpanID) become slices at their own start_us and
// dur_us: build phases on the batch lane, job:<name> spans on the lane of
// the worker their "worker" attribute names. Run calls it for
// Options.Chrome; calling it with the export of Options.Trace renders the
// fleet lanes alone.
func (c *ChromeSpans) AddBatch(doc *otrace.Doc, sum *Summary) {
	c.traceID = sum.TraceID
	c.processMeta(spanPid, "lisa fleet "+sum.Model+" ("+sum.Mode+")", 0)
	c.meta(batchTid, "batch")
	for w := 0; w < sum.Workers; w++ {
		c.meta(w+1, "worker "+strconv.Itoa(w))
	}
	jobOf := make(map[string]int, len(sum.Results))
	for i := range sum.Results {
		jobOf[sum.Results[i].SpanID] = i
	}
	var queued, done float64
	for _, sp := range doc.Spans {
		if sp.SpanID == sum.SpanID {
			done = sp.StartUs + sp.DurUs
		}
		if sp.Parent != sum.SpanID {
			continue
		}
		j, isJob := jobOf[sp.SpanID]
		if !isJob {
			c.events = append(c.events, trace.ChromeEvent{
				Name: sp.Name, Cat: "build", Ph: "X",
				Ts: sp.StartUs, Dur: sp.DurUs, Pid: spanPid, Tid: batchTid,
			})
			queued = max(queued, sp.StartUs+sp.DurUs)
			continue
		}
		r := &sum.Results[j]
		args := map[string]any{
			"job":        j,
			"steps":      r.Steps,
			"halted":     r.Halted,
			"queued_for": r.QueuedFor.String(),
			"span_id":    sp.SpanID,
		}
		if r.Err != "" {
			args["error"] = r.Err
		}
		worker, _ := sp.Attrs["worker"].(int)
		c.events = append(c.events, trace.ChromeEvent{
			Name: r.Name, Cat: "job", Ph: "X", Ts: sp.StartUs, Dur: sp.DurUs,
			Pid: spanPid, Tid: worker + 1, Args: args,
		})
	}
	// An instant marks when the run queue filled (all jobs enqueue
	// together), and one closing instant carries the batch totals so the
	// summary is inspectable inside the trace viewer.
	c.events = append(c.events, trace.ChromeEvent{
		Name: "jobs queued", Cat: "queue", Ph: "i",
		Ts: queued, Pid: spanPid, Tid: batchTid,
	}, trace.ChromeEvent{
		Name: "batch done", Cat: "batch", Ph: "i", Ts: done,
		Pid: spanPid, Tid: batchTid, Args: map[string]any{
			"jobs": sum.Jobs, "failed": sum.Failed,
			"jobs_per_sec": sum.Latency.JobsPerSec,
			"p50":          sum.Latency.P50.String(),
			"p99":          sum.Latency.P99.String(),
			"trace_id":     sum.TraceID,
		},
	})
}

// AddSim merges one job's per-cycle trace (a trace.ChromeTracer attached
// by Options.Chrome) into the batch document as its own process group:
// pid job+2, named after the job, sorted after the fleet lanes. The sim
// tracer stamps events in cycle-µs; AddSim rebases them onto the job's
// span — ts' = startUs + ts·scale, where startUs is the span's start and
// scale maps one simulated cycle to the job's real per-cycle wall time —
// so the job's pipeline activity lines up exactly under its worker-lane
// slice. Flow-event IDs (packet
// bindings) are prefixed per job so packets of different jobs never
// alias. Call after AddBatch, in job order, before WriteJSON.
func (c *ChromeSpans) AddSim(job int, name string, events []trace.ChromeEvent, startUs, scale float64) {
	pid := simPidBase + job
	c.processMeta(pid, fmt.Sprintf("job %d: %s", job, name), 1+job)
	for _, e := range events {
		e.Pid = pid
		switch e.Ph {
		case "M":
			// Metadata carries no timestamps; drop the tracer's own
			// process_name in favor of the group emitted above.
			if e.Name == "process_name" {
				continue
			}
		default:
			e.Ts = startUs + e.Ts*scale
			e.Dur = e.Dur * scale
		}
		if e.ID != "" {
			e.ID = fmt.Sprintf("j%d-%s", job, e.ID)
		}
		c.events = append(c.events, e)
	}
}

// Len returns the number of buffered trace events.
func (c *ChromeSpans) Len() int { return len(c.events) }

// WriteJSON emits the buffered events as a Chrome trace-event JSON
// object, the same envelope trace.ChromeTracer writes.
func (c *ChromeSpans) WriteJSON(w io.Writer) error {
	return trace.WriteEventsJSON(w, c.events)
}
