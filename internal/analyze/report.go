package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"golisa/internal/trace"
)

// Bucket is one slice of the CPI breakdown; the buckets of a report sum
// exactly to Steps.
type Bucket struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"` // fraction of total steps
}

// CauseCount counts hazard events (not cycles) per cause.
type CauseCount struct {
	Cause   string `json:"cause"`
	Stalls  uint64 `json:"stalls"`
	Flushes uint64 `json:"flushes"`
}

// ResourceCount counts hazard events gated by one resource.
type ResourceCount struct {
	Resource string `json:"resource"`
	Events   uint64 `json:"events"`
}

// SourceCount counts hazard events requested by one operation.
type SourceCount struct {
	Op     string `json:"op"`
	Events uint64 `json:"events"`
}

// PairCount counts stalls of one (requesting op, stalled victim op) pair.
type PairCount struct {
	Source string `json:"source"`
	Victim string `json:"victim"`
	Stalls uint64 `json:"stalls"`
}

// StageReport is the hazard summary of one pipeline stage.
type StageReport struct {
	Pipe     string   `json:"pipe"`
	Stage    string   `json:"stage"`
	Occupied uint64   `json:"occupied_cycles"`
	Stalls   uint64   `json:"stall_cycles"`
	ByCause  []Bucket `json:"stall_by_cause,omitempty"`
	Flushes  uint64   `json:"flushes"`
}

// TimelineReport is one pipe's occupancy/stall history: bucket i covers
// steps [i*StepsPerBucket, (i+1)*StepsPerBucket); Occupied and Stalled
// are stage-cycle counts per bucket (max Stages*StepsPerBucket each).
type TimelineReport struct {
	Pipe           string   `json:"pipe"`
	Stages         int      `json:"stages"`
	StepsPerBucket uint64   `json:"steps_per_bucket"`
	Occupied       []uint64 `json:"occupied"`
	Stalled        []uint64 `json:"stalled"`
}

// WhatIfEntry estimates the run with one hazard class eliminated: every
// penalty cycle attributed to the cause is removed, nothing else changes.
// This is a first-order bound — removing one hazard can expose another
// that was hidden behind it — so treat Speedup as an upper limit.
type WhatIfEntry struct {
	Cause    string  `json:"cause"`
	Penalty  uint64  `json:"penalty_cycles"`
	EstSteps uint64  `json:"estimated_steps"`
	EstCPI   float64 `json:"estimated_cpi"`
	Speedup  float64 `json:"speedup"`
}

// Report is a point-in-time snapshot of the analyzer, shaped for export.
// Construction is deterministic: all slices are sorted and no run-local
// identifiers (packet ids, pointers) appear, so two runs that emit the
// same event stream marshal to identical JSON.
type Report struct {
	Model       string           `json:"model"`
	Steps       uint64           `json:"steps"`
	IssueCycles uint64           `json:"issue_cycles"`
	IdleCycles  uint64           `json:"idle_cycles"`
	Dispatches  uint64           `json:"dispatches"`
	CPI         float64          `json:"cpi"` // steps per issue cycle
	Breakdown   []Bucket         `json:"breakdown"`
	Events      []CauseCount     `json:"events"`
	Resources   []ResourceCount  `json:"resources,omitempty"`
	Sources     []SourceCount    `json:"sources,omitempty"`
	Pairs       []PairCount      `json:"pairs,omitempty"`
	Stages      []StageReport    `json:"stages"`
	Timelines   []TimelineReport `json:"timelines"`
	WhatIf      []WhatIfEntry    `json:"what_if,omitempty"`
}

func share(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// Report snapshots the analyzer's current counts.
func (a *Analyzer) Report() *Report {
	c, topo := a.Counters, a.Topo
	r := &Report{
		Model:       topo.Model,
		Steps:       c.Steps,
		IssueCycles: c.Issue,
		IdleCycles:  c.Idle,
		Dispatches:  c.Dispatches,
	}
	if c.Issue > 0 {
		r.CPI = float64(c.Steps) / float64(c.Issue)
	}

	// CPI breakdown: issue, one bucket per hazard cause, unattributed
	// penalty ("other"), idle. Sums to Steps by construction.
	r.Breakdown = append(r.Breakdown, Bucket{"issue", c.Issue, share(c.Issue, c.Steps)})
	for _, cause := range trace.Causes {
		r.Breakdown = append(r.Breakdown, Bucket{cause.String(), c.Penalty[cause], share(c.Penalty[cause], c.Steps)})
	}
	r.Breakdown = append(r.Breakdown,
		Bucket{"other", c.Penalty[trace.CauseNone], share(c.Penalty[trace.CauseNone], c.Steps)},
		Bucket{"idle", c.Idle, share(c.Idle, c.Steps)})

	for cause := trace.Cause(0); cause < trace.NumCauses; cause++ {
		if c.StallEvents[cause] == 0 && c.FlushEvents[cause] == 0 {
			continue
		}
		r.Events = append(r.Events, CauseCount{cause.String(), c.StallEvents[cause], c.FlushEvents[cause]})
	}

	for id, n := range c.ByResource {
		if n > 0 {
			r.Resources = append(r.Resources, ResourceCount{topo.Resource(id), n})
		}
	}
	sort.Slice(r.Resources, func(i, j int) bool {
		if r.Resources[i].Events != r.Resources[j].Events {
			return r.Resources[i].Events > r.Resources[j].Events
		}
		return r.Resources[i].Resource < r.Resources[j].Resource
	})

	for id, n := range c.BySource {
		if n > 0 {
			r.Sources = append(r.Sources, SourceCount{topo.Op(id), n})
		}
	}
	sort.Slice(r.Sources, func(i, j int) bool {
		if r.Sources[i].Events != r.Sources[j].Events {
			return r.Sources[i].Events > r.Sources[j].Events
		}
		return r.Sources[i].Op < r.Sources[j].Op
	})

	for _, p := range c.Pairs {
		r.Pairs = append(r.Pairs, PairCount{topo.Op(p.Source), topo.Op(p.Victim), p.Stalls})
	}
	sort.Slice(r.Pairs, func(i, j int) bool {
		if r.Pairs[i].Stalls != r.Pairs[j].Stalls {
			return r.Pairs[i].Stalls > r.Pairs[j].Stalls
		}
		if r.Pairs[i].Source != r.Pairs[j].Source {
			return r.Pairs[i].Source < r.Pairs[j].Source
		}
		return r.Pairs[i].Victim < r.Pairs[j].Victim
	})

	for pi, p := range c.Pipes {
		for si := range p.Stages {
			st := &p.Stages[si]
			sr := StageReport{
				Pipe:     topo.Pipes[pi].Name,
				Stage:    topo.Pipes[pi].Stages[si],
				Occupied: st.Occupied,
				Stalls:   st.StallCycles(),
				Flushes:  st.Flushes,
			}
			for _, cause := range trace.Causes {
				if n := st.Stalls[cause]; n > 0 {
					sr.ByCause = append(sr.ByCause, Bucket{cause.String(), n, share(n, sr.Stalls)})
				}
			}
			if n := st.Stalls[trace.CauseNone]; n > 0 {
				sr.ByCause = append(sr.ByCause, Bucket{"other", n, share(n, sr.Stalls)})
			}
			r.Stages = append(r.Stages, sr)
		}
	}

	for i, p := range c.Pipes {
		r.Timelines = append(r.Timelines, TimelineReport{
			Pipe:           topo.Pipes[i].Name,
			Stages:         len(p.Stages),
			StepsPerBucket: p.Timeline.Width,
			Occupied:       append([]uint64{}, p.Timeline.Occupied...),
			Stalled:        append([]uint64{}, p.Timeline.Stalled...),
		})
	}

	for _, cause := range trace.Causes {
		p := c.Penalty[cause]
		if p == 0 {
			continue
		}
		est := c.Steps - p
		e := WhatIfEntry{Cause: cause.String(), Penalty: p, EstSteps: est}
		if c.Issue > 0 {
			e.EstCPI = float64(est) / float64(c.Issue)
		}
		if est > 0 {
			e.Speedup = float64(c.Steps) / float64(est)
		}
		r.WhatIf = append(r.WhatIf, e)
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human-readable hot-hazard report.
func (r *Report) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "hazard attribution: %s — %d steps, %d dispatches", r.Model, r.Steps, r.Dispatches)
	if r.CPI > 0 {
		fmt.Fprintf(bw, ", CPI %.3f", r.CPI)
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "\ncycle breakdown (buckets sum to steps):")
	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	for _, b := range r.Breakdown {
		if b.Cycles == 0 && b.Name != "issue" {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%d\t%5.1f%%\t%s\n", b.Name, b.Cycles, 100*b.Share, bar(b.Share, 30))
	}
	tw.Flush()

	if len(r.Events) > 0 {
		fmt.Fprintln(bw, "\nhazard events:")
		tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  cause\tstalls\tflushes\n")
		for _, e := range r.Events {
			fmt.Fprintf(tw, "  %s\t%d\t%d\n", e.Cause, e.Stalls, e.Flushes)
		}
		tw.Flush()
	}

	if len(r.Resources) > 0 {
		fmt.Fprintln(bw, "\nhot resources (hazard events gated by):")
		tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		for _, rc := range r.Resources {
			fmt.Fprintf(tw, "  %s\t%d\n", rc.Resource, rc.Events)
		}
		tw.Flush()
	}

	if len(r.Sources) > 0 {
		fmt.Fprintln(bw, "\nhot sources (ops requesting hazards):")
		tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		for _, sc := range r.Sources {
			fmt.Fprintf(tw, "  %s\t%d\n", sc.Op, sc.Events)
		}
		tw.Flush()
	}

	if len(r.Pairs) > 0 {
		fmt.Fprintln(bw, "\nstall pairs (requester -> stalled victim):")
		tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		for _, p := range r.Pairs {
			fmt.Fprintf(tw, "  %s -> %s\t%d\n", p.Source, p.Victim, p.Stalls)
		}
		tw.Flush()
	}

	fmt.Fprintln(bw, "\nper-stage:")
	tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  pipe/stage\toccupied\tstalls\tflushes\tstall causes\n")
	for _, s := range r.Stages {
		var causes []string
		for _, b := range s.ByCause {
			causes = append(causes, fmt.Sprintf("%s:%d", b.Name, b.Cycles))
		}
		fmt.Fprintf(tw, "  %s/%s\t%d\t%d\t%d\t%s\n",
			s.Pipe, s.Stage, s.Occupied, s.Stalls, s.Flushes, strings.Join(causes, " "))
	}
	tw.Flush()

	if len(r.WhatIf) > 0 {
		fmt.Fprintln(bw, "\nwhat-if (one hazard class eliminated; first-order upper bound):")
		tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  cause\t-cycles\test. steps\test. CPI\tspeedup\n")
		for _, e := range r.WhatIf {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%.3f\t%.2fx\n", e.Cause, e.Penalty, e.EstSteps, e.EstCPI, e.Speedup)
		}
		tw.Flush()
	}
	return bw.err
}

// bar renders a proportional ASCII bar of at most width cells.
func bar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// errWriter latches the first write error so report writers can check once.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// EmitChromeCounters exports the report's per-pipe occupancy/stall
// timelines as Chrome counter events on c, so the utilization curves
// line up with the exec spans in one trace-viewer view. Each pipe gets
// one counter track ("<pipe> utilization") with an "occupied" and a
// "stalled" series, sampled once per timeline bucket at the bucket's
// starting step (1 control step = 1µs of trace time).
func (r *Report) EmitChromeCounters(c *trace.ChromeTracer) {
	for _, tl := range r.Timelines {
		for i := range tl.Occupied {
			c.AddCounter(tl.Pipe+" utilization", float64(uint64(i)*tl.StepsPerBucket), map[string]any{
				"occupied": tl.Occupied[i],
				"stalled":  tl.Stalled[i],
			})
		}
	}
}
