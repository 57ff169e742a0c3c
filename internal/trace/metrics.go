package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metrics exports a Counters as Prometheus exposition text and JSON:
// run totals, per-stage pipeline counters (occupancy, stall cycles by
// cause, flushes, retire throughput) and per-operation execution
// histograms. Attached alone it counts into its own Counters; in a
// Fanout it shares one (see Sink).
type Metrics struct{ *Counters }

// NewMetrics creates an empty metrics exporter over its own Counters.
func NewMetrics() *Metrics { return &Metrics{NewCounters()} }

// Share implements Sink.
func (m *Metrics) Share(c *Counters) Observer {
	m.Counters = c
	return nil
}

// metricsView is the name-keyed snapshot both exporters write.
type metricsView struct {
	Model       string             `json:"model"`
	Steps       uint64             `json:"steps"`
	Decodes     uint64             `json:"decodes"`
	DecodeHits  uint64             `json:"decode_hits"`
	Activations uint64             `json:"activations"`
	Writes      uint64             `json:"resource_writes"`
	MemWrites   uint64             `json:"mem_writes"`
	Pipes       []*pipeView        `json:"pipes"`
	Ops         map[string]*opView `json:"ops"`
}

type pipeView struct {
	Name        string       `json:"name"`
	Stages      []*stageView `json:"stages"`
	Shifts      uint64       `json:"shifts"`
	FullStalls  uint64       `json:"full_stalls"`
	FullFlushes uint64       `json:"full_flushes"`
}

type stageView struct {
	Pipe           string `json:"pipe"`
	Stage          string `json:"stage"`
	OccupiedCycles uint64 `json:"occupied_cycles"`
	StallCycles    uint64 `json:"stall_cycles"`
	Flushes        uint64 `json:"flushes"`
	Execs          uint64 `json:"execs"`
	RetiredPackets uint64 `json:"retired_packets"`
	RetiredEntries uint64 `json:"retired_entries"`
	// StallCauseCycles splits StallCycles by hazard cause; unattributed
	// stalls appear only in StallCycles.
	StallCauseCycles map[string]uint64 `json:"stall_cause_cycles,omitempty"`
}

// opView is one operation's execution histogram: how often it ran, how
// many control steps it was active in, and where its cycles went (each
// execution occupies its stage for one control step).
type opView struct {
	Name        string            `json:"name"`
	Execs       uint64            `json:"execs"`
	Statements  uint64            `json:"statements"`
	ActiveSteps uint64            `json:"active_steps"`
	FirstStep   uint64            `json:"first_step"`
	LastStep    uint64            `json:"last_step"`
	StageCycles map[string]uint64 `json:"stage_cycles,omitempty"`
}

// view builds the name-keyed snapshot of the counters: Ops holds every
// operation that executed or ran behavior, with its stage cycles.
func (m *Metrics) view() *metricsView {
	c := m.Counters
	v := &metricsView{
		Model: c.Topo.Model, Steps: c.Steps, Decodes: c.Decodes, DecodeHits: c.DecodeHits,
		Activations: c.Activations, Writes: c.Writes, MemWrites: c.MemWrites,
		Ops: map[string]*opView{},
	}
	var tracks []string // by stage column
	for i, pc := range c.Pipes {
		pi := c.Topo.Pipes[i]
		pv := &pipeView{Name: pi.Name, Shifts: pc.Shifts, FullStalls: pc.FullStalls, FullFlushes: pc.FullFlushes}
		for j := range pc.Stages {
			s := &pc.Stages[j]
			sv := &stageView{
				Pipe: pi.Name, Stage: pi.Stages[j], OccupiedCycles: s.Occupied, StallCycles: s.StallCycles(),
				Flushes: s.Flushes, Execs: s.Execs, RetiredPackets: s.RetiredPackets, RetiredEntries: s.RetiredEntries,
			}
			for _, cause := range Causes {
				if n := s.Stalls[cause]; n > 0 {
					if sv.StallCauseCycles == nil {
						sv.StallCauseCycles = map[string]uint64{}
					}
					sv.StallCauseCycles[cause.String()] = n
				}
			}
			pv.Stages = append(pv.Stages, sv)
			tracks = append(tracks, StageTrack(pi.Name, pi.Stages[j]))
		}
		v.Pipes = append(v.Pipes, pv)
	}
	for id := range c.Ops {
		o := &c.Ops[id]
		if !o.Seen {
			continue
		}
		ov := &opView{Name: c.Topo.Op(id), Execs: o.Execs, Statements: o.Statements,
			ActiveSteps: o.ActiveSteps, FirstStep: o.FirstStep, LastStep: o.LastStep}
		for col, track := range tracks {
			if n := c.OpStage[id*len(c.Stages)+col]; n > 0 {
				if ov.StageCycles == nil {
					ov.StageCycles = map[string]uint64{}
				}
				ov.StageCycles[track] = n
			}
		}
		v.Ops[ov.Name] = ov
	}
	return v
}

// sortedOps returns operation views sorted by name for stable output.
func (v *metricsView) sortedOps() []*opView {
	ops := make([]*opView, 0, len(v.Ops))
	for _, o := range v.Ops {
		ops = append(ops, o)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	return ops
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote and newline. (fmt's %q escapes more —
// tabs, non-ASCII — in ways the exposition format does not define.)
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// WriteText emits the snapshot in Prometheus exposition format: a
// `# HELP` and `# TYPE` header per metric followed by its
// `name{labels} value` samples.
func (m *Metrics) WriteText(w io.Writer) error {
	v := m.view()
	ew := &errWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(ew, format, args...) }
	head := func(name, help string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s counter\n", name)
	}
	lbl := fmt.Sprintf(`{model="%s"}`, promEscape(v.Model))
	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"lisa_steps_total", "Control steps simulated.", v.Steps},
		{"lisa_decodes_total", "Instruction decode attempts.", v.Decodes},
		{"lisa_decode_cache_hits_total", "Decodes served from the decode cache.", v.DecodeHits},
		{"lisa_activations_total", "Operation activations scheduled.", v.Activations},
		{"lisa_resource_writes_total", "Scalar resource writes.", v.Writes},
		{"lisa_mem_writes_total", "Memory element writes.", v.MemWrites},
	} {
		head(c.name, c.help)
		p("%s%s %d\n", c.name, lbl, c.value)
	}

	for _, c := range []struct {
		name, help string
		get        func(*pipeView) uint64
	}{
		{"lisa_pipe_shifts_total", "Whole-pipeline shift operations.", func(pm *pipeView) uint64 { return pm.Shifts }},
		{"lisa_pipe_full_stalls_total", "Whole-pipeline stall requests.", func(pm *pipeView) uint64 { return pm.FullStalls }},
		{"lisa_pipe_full_flushes_total", "Whole-pipeline flushes.", func(pm *pipeView) uint64 { return pm.FullFlushes }},
	} {
		head(c.name, c.help)
		for _, pm := range v.Pipes {
			p("%s{pipe=\"%s\"} %d\n", c.name, promEscape(pm.Name), c.get(pm))
		}
	}

	for _, counter := range []struct {
		name, help string
		get        func(*stageView) uint64
	}{
		{"lisa_stage_occupied_cycles_total", "Control steps the stage held a packet.", func(s *stageView) uint64 { return s.OccupiedCycles }},
		{"lisa_stage_stall_cycles_total", "Control steps the stage was stalled, split by hazard cause when attributed; the series without a cause label is the total.", func(s *stageView) uint64 { return s.StallCycles }},
		{"lisa_stage_flushes_total", "Packets flushed from the stage.", func(s *stageView) uint64 { return s.Flushes }},
		{"lisa_stage_execs_total", "Operation executions in the stage.", func(s *stageView) uint64 { return s.Execs }},
		{"lisa_stage_retired_packets_total", "Packets retired from the stage.", func(s *stageView) uint64 { return s.RetiredPackets }},
		{"lisa_stage_retired_entries_total", "Instruction entries retired from the stage.", func(s *stageView) uint64 { return s.RetiredEntries }},
	} {
		head(counter.name, counter.help)
		for _, pm := range v.Pipes {
			for _, s := range pm.Stages {
				p("%s{pipe=\"%s\",stage=\"%s\"} %d\n", counter.name, promEscape(s.Pipe), promEscape(s.Stage), counter.get(s))
				if counter.name != "lisa_stage_stall_cycles_total" || len(s.StallCauseCycles) == 0 {
					continue
				}
				// Cause-labeled variants under the same metric header; the
				// uncaused series above stays the backward-compatible total.
				causes := make([]string, 0, len(s.StallCauseCycles))
				for c := range s.StallCauseCycles {
					causes = append(causes, c)
				}
				sort.Strings(causes)
				for _, c := range causes {
					p("%s{pipe=\"%s\",stage=\"%s\",cause=\"%s\"} %d\n",
						counter.name, promEscape(s.Pipe), promEscape(s.Stage), promEscape(c), s.StallCauseCycles[c])
				}
			}
		}
	}

	ops := v.sortedOps()
	head("lisa_op_execs_total", "Executions per operation.")
	for _, o := range ops {
		p("lisa_op_execs_total{op=\"%s\"} %d\n", promEscape(o.Name), o.Execs)
	}
	head("lisa_op_statements_total", "Behavior statements run per operation.")
	for _, o := range ops {
		if o.Statements > 0 {
			p("lisa_op_statements_total{op=\"%s\"} %d\n", promEscape(o.Name), o.Statements)
		}
	}
	head("lisa_op_active_steps_total", "Control steps each operation was active in.")
	for _, o := range ops {
		p("lisa_op_active_steps_total{op=\"%s\"} %d\n", promEscape(o.Name), o.ActiveSteps)
	}
	head("lisa_op_stage_cycles_total", "Per-stage cycle attribution of each operation.")
	for _, o := range ops {
		tracks := make([]string, 0, len(o.StageCycles))
		for t := range o.StageCycles {
			tracks = append(tracks, t)
		}
		sort.Strings(tracks)
		for _, t := range tracks {
			p("lisa_op_stage_cycles_total{op=\"%s\",stage=\"%s\"} %d\n", promEscape(o.Name), promEscape(t), o.StageCycles[t])
		}
	}
	return ew.err
}

// WriteJSON emits the snapshot as machine-readable JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.view())
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
