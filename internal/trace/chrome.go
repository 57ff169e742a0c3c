package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeTracer is an Observer buffering Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto). Each pipeline stage is
// rendered as one named track (thread), each operation execution as a
// 1-cycle slice on its stage's track, and each pipeline packet as a flow
// connecting its executions across stages, making pipeline bubbles and
// stalls visible in a browser. One control step maps to 1µs of trace
// time. Activations are not rendered: they show as the exec slices they
// lead to.
type ChromeTracer struct {
	Nop
	events []ChromeEvent
	base   []int // by pipe: the tid of its first stage's track
	opsTid int   // track for unassigned operations
	topo   *Topology
	cur    uint64
	flows  map[uint64]bool // packet ids already started
}

// ChromeEvent is one Chrome trace-event JSON record (the subset of the
// trace-event format these tracers emit). It is exported so batch-level
// collectors (fleet.ChromeSpans) share one schema with the per-cycle
// tracer and can merge both into a single timeline document.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

const chromePid = 1

// NewChromeTracer creates an empty Chrome trace-event collector.
func NewChromeTracer() *ChromeTracer {
	return &ChromeTracer{flows: map[uint64]bool{}, topo: &Topology{}}
}

// OnAttach implements Observer: it creates one track per pipeline stage
// (plus one for unassigned operations) with stable names and ordering.
func (c *ChromeTracer) OnAttach(t *Topology) {
	c.topo = t
	c.events = append(c.events, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: map[string]any{"name": "lisa-sim " + t.Model},
	})
	tid := 1
	c.base = c.base[:0]
	for _, p := range t.Pipes {
		c.base = append(c.base, tid)
		for _, st := range p.Stages {
			c.meta(tid, StageTrack(p.Name, st))
			tid++
		}
	}
	c.opsTid = tid
	c.meta(tid, "(unassigned ops)")
}

func (c *ChromeTracer) meta(tid int, name string) {
	c.events = append(c.events,
		ChromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": name}},
		ChromeEvent{Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"sort_index": tid}},
	)
}

func (c *ChromeTracer) tid(pipe, stage int) int {
	if pipe < 0 || pipe >= len(c.base) || stage < 0 || stage >= len(c.topo.Pipes[pipe].Stages) {
		return c.opsTid
	}
	return c.base[pipe] + stage
}

// stageTids returns the track ids a (pipe, stage) event maps to; a
// whole-pipe event (stage -1) maps to every stage track of the pipe.
func (c *ChromeTracer) stageTids(pipe, stage int) []int {
	if stage >= 0 {
		return []int{c.tid(pipe, stage)}
	}
	if pipe < 0 || pipe >= len(c.topo.Pipes) {
		return []int{c.opsTid}
	}
	tids := make([]int, 0, len(c.topo.Pipes[pipe].Stages))
	for si := range c.topo.Pipes[pipe].Stages {
		tids = append(tids, c.tid(pipe, si))
	}
	return tids
}

func (c *ChromeTracer) ts() float64 { return float64(c.cur) }

// OnStepBegin implements Observer.
func (c *ChromeTracer) OnStepBegin(step uint64) { c.cur = step }

// OnOccupancy implements Observer: one counter track per pipeline.
func (c *ChromeTracer) OnOccupancy(pipe int, occupied []bool) {
	if pipe < 0 || pipe >= len(c.topo.Pipes) {
		return
	}
	n := 0
	for _, occ := range occupied {
		if occ {
			n++
		}
	}
	c.events = append(c.events, ChromeEvent{
		Name: c.topo.Pipes[pipe].Name + " occupancy", Ph: "C", Ts: c.ts(),
		Pid: chromePid, Tid: 0, Args: map[string]any{"packets": n},
	})
}

// OnDecode implements Observer.
func (c *ChromeTracer) OnDecode(root int, word uint64, hit bool) {
	c.events = append(c.events, ChromeEvent{
		Name: "decode " + c.topo.Op(root), Cat: "decode", Ph: "i", Ts: c.ts(),
		Pid: chromePid, Tid: c.opsTid, Scope: "t",
		Args: map[string]any{"word": fmt.Sprintf("%#x", word), "cache_hit": hit},
	})
}

// OnExec implements Observer: a 1-cycle slice on the stage's track, with
// a flow event binding the slices of one packet together.
func (c *ChromeTracer) OnExec(op, pipe, stage int, packet uint64) {
	tid := c.tid(pipe, stage)
	c.events = append(c.events, ChromeEvent{
		Name: c.topo.Op(op), Cat: "exec", Ph: "X", Ts: c.ts(), Dur: 1,
		Pid: chromePid, Tid: tid,
	})
	if packet == 0 {
		return
	}
	ph := "t"
	if !c.flows[packet] {
		c.flows[packet] = true
		ph = "s"
	}
	c.events = append(c.events, ChromeEvent{
		Name: "packet", Cat: "packet", Ph: ph, Ts: c.ts(),
		Pid: chromePid, Tid: tid, ID: fmt.Sprintf("%#x", packet),
	})
}

// OnStall implements Observer: the instant carries the hazard
// attribution as args so it is inspectable in the trace viewer.
func (c *ChromeTracer) OnStall(info StallInfo) { c.hazard("stall", info) }

// OnFlush implements Observer.
func (c *ChromeTracer) OnFlush(info StallInfo) { c.hazard("flush", info) }

// hazard emits one instant per affected stage track. Whole-pipe events
// (stage -1) land on every stage track, labeled as whole-pipe.
func (c *ChromeTracer) hazard(kind string, info StallInfo) {
	name := kind
	if info.Stage < 0 {
		name = kind + " (whole pipe)"
	}
	var args map[string]any
	op := c.topo.Op(info.SourceOp)
	if info.Cause != CauseNone || op != "" {
		args = map[string]any{"cause": info.Cause.String()}
		if res := c.topo.Resource(info.Resource); res != "" {
			args["resource"] = res
		}
		if op != "" {
			args["op"] = op
		}
		if info.Packet != 0 {
			args["packet"] = fmt.Sprintf("%#x", info.Packet)
		}
		if info.Stage < 0 {
			args["whole_pipe"] = true
		}
	}
	for _, tid := range c.stageTids(info.Pipe, info.Stage) {
		c.events = append(c.events, ChromeEvent{
			Name: name, Cat: "hazard", Ph: "i", Ts: c.ts(),
			Pid: chromePid, Tid: tid, Scope: "t", Args: args,
		})
	}
}

// OnRetire implements Observer: the packet's flow terminates on the last
// stage's track.
func (c *ChromeTracer) OnRetire(pipe, stage int, packet uint64, entries int) {
	tid := c.tid(pipe, stage)
	c.events = append(c.events, ChromeEvent{
		Name: "retire", Cat: "retire", Ph: "i", Ts: c.ts(),
		Pid: chromePid, Tid: tid, Scope: "t",
		Args: map[string]any{"entries": entries},
	})
	if packet != 0 && c.flows[packet] {
		delete(c.flows, packet)
		c.events = append(c.events, ChromeEvent{
			Name: "packet", Cat: "packet", Ph: "f", BP: "e", Ts: c.ts(),
			Pid: chromePid, Tid: tid, ID: fmt.Sprintf("%#x", packet),
		})
	}
}

// AddCounter appends a counter sample ("ph":"C") at ts (control steps,
// i.e. µs of trace time). values becomes the counter's series — multiple
// keys render as stacked series on one counter track. This is the seam
// external producers (the hazard analyzer's occupancy timelines) use to
// add their curves to the same trace-viewer view as the spans.
func (c *ChromeTracer) AddCounter(name string, ts float64, values map[string]any) {
	c.events = append(c.events, ChromeEvent{
		Name: name, Ph: "C", Ts: ts, Pid: chromePid, Tid: 0, Args: values,
	})
}

// Len returns the number of buffered trace events.
func (c *ChromeTracer) Len() int { return len(c.events) }

// Events returns the buffered trace events. The slice is the tracer's
// own buffer — treat it as read-only and do not retain it across further
// observer callbacks. Merging collectors (fleet.ChromeSpans.AddSim) copy
// what they keep.
func (c *ChromeTracer) Events() []ChromeEvent { return c.events }

// WriteEventsJSON writes any event slice in the standard Chrome
// trace-event envelope, so merged documents and single-tracer documents
// are byte-compatible for trace viewers.
func WriteEventsJSON(w io.Writer, events []ChromeEvent) error {
	doc := struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteJSON emits the buffered events as a Chrome trace-event JSON object.
func (c *ChromeTracer) WriteJSON(w io.Writer) error {
	return WriteEventsJSON(w, c.events)
}
