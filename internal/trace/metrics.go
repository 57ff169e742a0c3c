package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// StageMetrics accumulates counters for one pipeline stage.
type StageMetrics struct {
	Pipe           string `json:"pipe"`
	Stage          string `json:"stage"`
	OccupiedCycles uint64 `json:"occupied_cycles"`
	StallCycles    uint64 `json:"stall_cycles"`
	Flushes        uint64 `json:"flushes"`
	Execs          uint64 `json:"execs"`
	RetiredPackets uint64 `json:"retired_packets"`
	RetiredEntries uint64 `json:"retired_entries"`

	// StallCauseCycles splits StallCycles by hazard cause
	// ("data"/"control"/"structural"/"explicit") when the emitter provides
	// attribution; unattributed stalls appear only in StallCycles. It is
	// filled from the per-cause counters when the snapshot is written.
	StallCauseCycles map[string]uint64 `json:"stall_cause_cycles,omitempty"`

	track  string            // StageTrack(Pipe, Stage): the OpMetrics.StageCycles key
	column int               // this stage's column in Metrics.stageCycles
	causes [NumCauses]uint64 // stall cycles by cause
}

// stall counts one stall cycle, split by cause when attributed.
func (s *StageMetrics) stall(c Cause) {
	s.StallCycles++
	if c < NumCauses {
		s.causes[c]++
	}
}

// PipeMetrics accumulates counters for one pipeline.
type PipeMetrics struct {
	Name        string          `json:"name"`
	Stages      []*StageMetrics `json:"stages"`
	Shifts      uint64          `json:"shifts"`
	FullStalls  uint64          `json:"full_stalls"`  // stage -1 stall requests
	FullFlushes uint64          `json:"full_flushes"` // stage -1 flushes
}

// OpMetrics accumulates the execution histogram of one operation: how
// often it ran, how many control steps it was active in, and where its
// cycles went (per-stage attribution: each execution occupies its stage
// for one control step).
type OpMetrics struct {
	Name        string            `json:"name"`
	Execs       uint64            `json:"execs"`
	Statements  uint64            `json:"statements"`
	ActiveSteps uint64            `json:"active_steps"`
	FirstStep   uint64            `json:"first_step"`
	LastStep    uint64            `json:"last_step"`
	StageCycles map[string]uint64 `json:"stage_cycles,omitempty"`

	seen     bool   // the operation executed or ran behavior
	lastSeen uint64 // lastSeen = step+1 of last exec, 0 = never
}

// Metrics is an Observer collecting per-stage pipeline metrics and
// per-operation execution histograms. Zero value is ready to attach.
//
// Events count into slices indexed by operation id and stage, sized at
// attach. Ops and the stages' StallCauseCycles are the name-keyed views
// the exporters write; WriteText and WriteJSON fill them.
type Metrics struct {
	Model       string                `json:"model"`
	Steps       uint64                `json:"steps"`
	Decodes     uint64                `json:"decodes"`
	DecodeHits  uint64                `json:"decode_hits"`
	Activations uint64                `json:"activations"`
	Writes      uint64                `json:"resource_writes"`
	MemWrites   uint64                `json:"mem_writes"`
	Pipes       []*PipeMetrics        `json:"pipes"`
	Ops         map[string]*OpMetrics `json:"ops"`

	cur         uint64      // current control step
	ops         []OpMetrics // by operation id
	stages      int         // stage columns: every stage of every pipe
	stageCycles []uint64    // executions by operation id and stage column
}

// NewMetrics creates an empty metrics collector.
func NewMetrics() *Metrics { return &Metrics{Ops: map[string]*OpMetrics{}} }

// op returns the counters of operation id, marking it seen; nil for an
// id outside the attached table.
func (m *Metrics) op(id int) *OpMetrics {
	if id < 0 || id >= len(m.ops) {
		return nil
	}
	o := &m.ops[id]
	if !o.seen {
		o.seen = true
		o.FirstStep = m.cur
	}
	return o
}

func (m *Metrics) stage(pipe, stage int) *StageMetrics {
	if pipe < 0 || pipe >= len(m.Pipes) {
		return nil
	}
	p := m.Pipes[pipe]
	if stage < 0 || stage >= len(p.Stages) {
		return nil
	}
	return p.Stages[stage]
}

// OnAttach implements Observer. The pipeline counters start afresh; the
// operation counters carry over a re-attach to the same model.
func (m *Metrics) OnAttach(t *Topology) {
	m.Model = t.Model
	m.Pipes = m.Pipes[:0]
	m.stages = 0
	for _, pi := range t.Pipes {
		pm := &PipeMetrics{Name: pi.Name}
		for _, st := range pi.Stages {
			pm.Stages = append(pm.Stages, &StageMetrics{Pipe: pi.Name, Stage: st, track: StageTrack(pi.Name, st), column: m.stages})
			m.stages++
		}
		m.Pipes = append(m.Pipes, pm)
	}
	if len(m.ops) != len(t.Ops) || len(m.stageCycles) != len(t.Ops)*m.stages {
		m.ops = make([]OpMetrics, len(t.Ops))
		for i, name := range t.Ops {
			m.ops[i].Name = name
		}
		m.stageCycles = make([]uint64, len(t.Ops)*m.stages)
	}
}

// OnStepBegin implements Observer.
func (m *Metrics) OnStepBegin(step uint64) { m.cur = step }

// OnStepEnd implements Observer.
func (m *Metrics) OnStepEnd(uint64) { m.Steps++ }

// OnOccupancy implements Observer.
func (m *Metrics) OnOccupancy(pipe int, occupied []bool) {
	if pipe < 0 || pipe >= len(m.Pipes) {
		return
	}
	stages := m.Pipes[pipe].Stages
	for i, occ := range occupied {
		if occ && i < len(stages) {
			stages[i].OccupiedCycles++
		}
	}
}

// OnDecode implements Observer.
func (m *Metrics) OnDecode(root int, word uint64, hit bool) {
	m.Decodes++
	if hit {
		m.DecodeHits++
	}
}

// OnActivate implements Observer.
func (m *Metrics) OnActivate(int, int, uint64) { m.Activations++ }

// OnExec implements Observer.
func (m *Metrics) OnExec(op, pipe, stage int, packet uint64) {
	o := m.op(op)
	if o == nil {
		return
	}
	o.Execs++
	o.LastStep = m.cur
	if o.lastSeen != m.cur+1 {
		o.lastSeen = m.cur + 1
		o.ActiveSteps++
	}
	if s := m.stage(pipe, stage); s != nil {
		s.Execs++
		m.stageCycles[op*m.stages+s.column]++
	}
}

// OnBehavior implements Observer.
func (m *Metrics) OnBehavior(op int, statements uint64) {
	if o := m.op(op); o != nil {
		o.Statements += statements
	}
}

// OnStall implements Observer. A whole-pipe stall (stage -1) counts one
// stall cycle on every stage plus the pipe's FullStalls counter; stall
// cycles are additionally split by cause.
func (m *Metrics) OnStall(info StallInfo) {
	if info.Pipe < 0 || info.Pipe >= len(m.Pipes) {
		return
	}
	p := m.Pipes[info.Pipe]
	if info.Stage < 0 {
		p.FullStalls++
		for _, s := range p.Stages {
			s.stall(info.Cause)
		}
		return
	}
	if s := m.stage(info.Pipe, info.Stage); s != nil {
		s.stall(info.Cause)
	}
}

// OnFlush implements Observer; flushes keep a single per-stage counter
// (their cause is control by definition).
func (m *Metrics) OnFlush(info StallInfo) {
	if info.Pipe < 0 || info.Pipe >= len(m.Pipes) {
		return
	}
	p := m.Pipes[info.Pipe]
	if info.Stage < 0 {
		p.FullFlushes++
		for _, s := range p.Stages {
			s.Flushes++
		}
		return
	}
	if s := m.stage(info.Pipe, info.Stage); s != nil {
		s.Flushes++
	}
}

// OnShift implements Observer.
func (m *Metrics) OnShift(pipe int) {
	if pipe >= 0 && pipe < len(m.Pipes) {
		m.Pipes[pipe].Shifts++
	}
}

// OnRetire implements Observer.
func (m *Metrics) OnRetire(pipe, stage int, packet uint64, entries int) {
	if s := m.stage(pipe, stage); s != nil {
		s.RetiredPackets++
		s.RetiredEntries += uint64(entries)
	}
}

// OnResourceWrite implements Observer.
func (m *Metrics) OnResourceWrite(int, uint64) { m.Writes++ }

// OnMemWrite implements Observer.
func (m *Metrics) OnMemWrite(int, uint64, uint64) { m.MemWrites++ }

// fill builds the name-keyed views from the counters: Ops holds every
// operation that executed or ran behavior, with its stage cycles, and
// each stage's StallCauseCycles its attributed stall cycles.
func (m *Metrics) fill() {
	m.Ops = make(map[string]*OpMetrics)
	for i := range m.ops {
		o := &m.ops[i]
		if !o.seen {
			continue
		}
		o.StageCycles = nil
		for _, p := range m.Pipes {
			for _, s := range p.Stages {
				if n := m.stageCycles[i*m.stages+s.column]; n > 0 {
					if o.StageCycles == nil {
						o.StageCycles = map[string]uint64{}
					}
					o.StageCycles[s.track] = n
				}
			}
		}
		m.Ops[o.Name] = o
	}
	for _, p := range m.Pipes {
		for _, s := range p.Stages {
			s.StallCauseCycles = nil
			for _, c := range Causes {
				if n := s.causes[c]; n > 0 {
					if s.StallCauseCycles == nil {
						s.StallCauseCycles = map[string]uint64{}
					}
					s.StallCauseCycles[c.String()] = n
				}
			}
		}
	}
}

// sortedOps returns operation metrics sorted by name for stable output.
func (m *Metrics) sortedOps() []*OpMetrics {
	ops := make([]*OpMetrics, 0, len(m.Ops))
	for _, o := range m.Ops {
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
	m.fill()
	ew := &errWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(ew, format, args...) }
	head := func(name, help string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s counter\n", name)
	}
	lbl := fmt.Sprintf(`{model="%s"}`, promEscape(m.Model))
	for _, c := range []struct {
		name, help string
		value      uint64
	}{
		{"lisa_steps_total", "Control steps simulated.", m.Steps},
		{"lisa_decodes_total", "Instruction decode attempts.", m.Decodes},
		{"lisa_decode_cache_hits_total", "Decodes served from the decode cache.", m.DecodeHits},
		{"lisa_activations_total", "Operation activations scheduled.", m.Activations},
		{"lisa_resource_writes_total", "Scalar resource writes.", m.Writes},
		{"lisa_mem_writes_total", "Memory element writes.", m.MemWrites},
	} {
		head(c.name, c.help)
		p("%s%s %d\n", c.name, lbl, c.value)
	}

	for _, c := range []struct {
		name, help string
		get        func(*PipeMetrics) uint64
	}{
		{"lisa_pipe_shifts_total", "Whole-pipeline shift operations.", func(pm *PipeMetrics) uint64 { return pm.Shifts }},
		{"lisa_pipe_full_stalls_total", "Whole-pipeline stall requests.", func(pm *PipeMetrics) uint64 { return pm.FullStalls }},
		{"lisa_pipe_full_flushes_total", "Whole-pipeline flushes.", func(pm *PipeMetrics) uint64 { return pm.FullFlushes }},
	} {
		head(c.name, c.help)
		for _, pm := range m.Pipes {
			p("%s{pipe=\"%s\"} %d\n", c.name, promEscape(pm.Name), c.get(pm))
		}
	}

	for _, counter := range []struct {
		name, help string
		get        func(*StageMetrics) uint64
	}{
		{"lisa_stage_occupied_cycles_total", "Control steps the stage held a packet.", func(s *StageMetrics) uint64 { return s.OccupiedCycles }},
		{"lisa_stage_stall_cycles_total", "Control steps the stage was stalled, split by hazard cause when attributed; the series without a cause label is the total.", func(s *StageMetrics) uint64 { return s.StallCycles }},
		{"lisa_stage_flushes_total", "Packets flushed from the stage.", func(s *StageMetrics) uint64 { return s.Flushes }},
		{"lisa_stage_execs_total", "Operation executions in the stage.", func(s *StageMetrics) uint64 { return s.Execs }},
		{"lisa_stage_retired_packets_total", "Packets retired from the stage.", func(s *StageMetrics) uint64 { return s.RetiredPackets }},
		{"lisa_stage_retired_entries_total", "Instruction entries retired from the stage.", func(s *StageMetrics) uint64 { return s.RetiredEntries }},
	} {
		head(counter.name, counter.help)
		for _, pm := range m.Pipes {
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

	ops := m.sortedOps()
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
	m.fill()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
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
