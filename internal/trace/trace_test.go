package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var testPipes = []PipeInfo{{Name: "pipe", Stages: []string{"FE", "DC", "EX", "WB"}}}

// testTopo names the ids feed's events carry.
var testTopo = &Topology{
	Model:     "m",
	Pipes:     testPipes,
	Ops:       []string{"insn", "decode", "add", "fetch", "alu", "free", "ld", "br"},
	Resources: []string{"pc", "mem", "mem_wait", "cond"},
}

// Operation and resource ids of testTopo.
const (
	opInsn = iota
	opDecode
	opAdd
	opFetch
	opAlu
	opFree
	opLd
	opBr
)

const (
	resPC = iota
	resMem
	resMemWait
	resCond
)

// The attributed events feed delivers.
var (
	feedEdge  = edge{opDecode, opAdd, 1}
	feedStall = StallInfo{Pipe: 0, Stage: 1, Cause: CauseData, SourceOp: opLd, Resource: resMemWait, Packet: 7}
	feedFlush = StallInfo{Pipe: 0, Stage: -1, Cause: CauseControl, SourceOp: opBr, Resource: resCond, Packet: 7}
)

// feed drives a small synthetic 3-step simulation into an observer:
// step 0: decode miss, activation edge, exec on FE, data stall on DC,
// resource write
// step 1: decode hit, exec on DC (same packet), whole-pipe control flush,
// shift
// step 2: exec on EX, retire of packet 7, mem write
func feed(o Observer) {
	o.OnAttach(testTopo)

	o.OnStepBegin(0)
	o.OnDecode(opInsn, 0x1234, false)
	o.OnActivate(feedEdge.source, feedEdge.target, feedEdge.delay)
	o.OnExec(opFetch, 0, 0, 7)
	o.OnBehavior(opFetch, 3)
	o.OnStall(feedStall)
	o.OnResourceWrite(resPC, 2)
	o.OnOccupancy(0, []bool{true, false, false, false})
	o.OnStepEnd(0)

	o.OnStepBegin(1)
	o.OnDecode(opInsn, 0x1234, true)
	o.OnExec(opDecode, 0, 1, 7)
	o.OnFlush(feedFlush)
	o.OnShift(0)
	o.OnOccupancy(0, []bool{true, true, false, false})
	o.OnStepEnd(1)

	o.OnStepBegin(2)
	o.OnExec(opAlu, 0, 2, 7)
	o.OnExec(opFree, -1, -1, 0)
	o.OnRetire(0, 3, 7, 2)
	o.OnMemWrite(resMem, 0x10, 42)
	o.OnOccupancy(0, []bool{false, true, true, false})
	o.OnStepEnd(2)
}

func TestFanout(t *testing.T) {
	if Fanout() != nil {
		t.Error("Fanout() should be nil")
	}
	if Fanout(nil, nil) != nil {
		t.Error("Fanout(nil, nil) should be nil")
	}
	f := NewFlight(8)
	if got := Fanout(nil, f); got != Observer(f) {
		t.Errorf("Fanout with one live observer should return it unwrapped, got %T", got)
	}
	m := NewMetrics()
	if got := Fanout(nil, m); got != Observer(m.Counters) {
		t.Errorf("Fanout with one sink should return its Counters, got %T", got)
	}
	// Every sink of one fan-out reads the first one's Counters, which
	// joins the fan-out once.
	m2 := NewMetrics()
	a, b := &capture{}, &capture{}
	combined := Fanout(m, nil, Fanout(f, a), m2, b)
	multi, ok := combined.(Multi)
	if !ok {
		t.Fatalf("Fanout of 5 observers = %T, want Multi", combined)
	}
	if len(multi) != 4 || multi[0] != Observer(m.Counters) {
		t.Errorf("nested Multi not flattened or sinks not shared: %T", multi)
	}
	if m2.Counters != m.Counters {
		t.Error("the second sink does not read the first one's Counters")
	}
	// Events must reach every member.
	feed(combined)
	if m.Steps != 3 {
		t.Errorf("Multi member Metrics.Steps = %d, want 3", m.Steps)
	}
	if len(f.Events()) == 0 {
		t.Error("Multi member Flight recorded no events")
	}
	// Attributed events keep their full payload through the fanout.
	for i, c := range []*capture{a, b} {
		if len(c.edges) != 1 || c.edges[0] != feedEdge {
			t.Errorf("member %d activations = %+v, want [%+v]", i, c.edges, feedEdge)
		}
		if len(c.stalls) != 1 || c.stalls[0] != feedStall {
			t.Errorf("member %d stalls = %+v, want [%+v]", i, c.stalls, feedStall)
		}
		if len(c.flushes) != 1 || c.flushes[0] != feedFlush {
			t.Errorf("member %d flushes = %+v, want [%+v]", i, c.flushes, feedFlush)
		}
	}
}

// targetOnly keeps only the activation target, like the recorder and the
// verifier do.
type targetOnly struct {
	Nop
	got []int
}

func (l *targetOnly) OnActivate(_, target int, _ uint64) { l.got = append(l.got, target) }

// TestMultiRedispatchesEdges: a fanout hands each member the whole
// activation edge, through nested fanouts too, whether the member uses
// the source or not.
func TestMultiRedispatchesEdges(t *testing.T) {
	tgt, c := &targetOnly{}, &capture{}
	m := Multi{tgt, Multi{c}}
	m.OnActivate(opDecode, opAlu, 2)
	if len(tgt.got) != 1 || tgt.got[0] != opAlu {
		t.Fatalf("target-only member got %v, want [%d]", tgt.got, opAlu)
	}
	if want := (edge{opDecode, opAlu, 2}); len(c.edges) != 1 || c.edges[0] != want {
		t.Fatalf("nested member got %+v, want [%+v]", c.edges, want)
	}
}

// edge is one activation as OnActivate reports it.
type edge struct {
	source, target int
	delay          uint64
}

// capture keeps the payload of every activation, stall and flush.
type capture struct {
	Nop
	edges           []edge
	stalls, flushes []StallInfo
}

func (c *capture) OnActivate(source, target int, delay uint64) {
	c.edges = append(c.edges, edge{source, target, delay})
}
func (c *capture) OnStall(info StallInfo) { c.stalls = append(c.stalls, info) }
func (c *capture) OnFlush(info StallInfo) { c.flushes = append(c.flushes, info) }

func TestMetricsCounters(t *testing.T) {
	met := NewMetrics()
	feed(met)
	m := met.view()

	if m.Model != "m" {
		t.Errorf("Model = %q, want m", m.Model)
	}
	if m.Steps != 3 || m.Decodes != 2 || m.DecodeHits != 1 || m.Activations != 1 {
		t.Errorf("Steps/Decodes/Hits/Activations = %d/%d/%d/%d, want 3/2/1/1",
			m.Steps, m.Decodes, m.DecodeHits, m.Activations)
	}
	if m.Writes != 1 || m.MemWrites != 1 {
		t.Errorf("Writes/MemWrites = %d/%d, want 1/1", m.Writes, m.MemWrites)
	}
	if len(m.Pipes) != 1 || len(m.Pipes[0].Stages) != 4 {
		t.Fatalf("topology not mirrored from OnAttach: %+v", m.Pipes)
	}
	p := m.Pipes[0]
	if p.Shifts != 1 || p.FullStalls != 0 || p.FullFlushes != 1 {
		t.Errorf("Shifts/FullStalls/FullFlushes = %d/%d/%d, want 1/0/1",
			p.Shifts, p.FullStalls, p.FullFlushes)
	}
	wantOcc := []uint64{2, 2, 1, 0}
	wantStall := []uint64{0, 1, 0, 0}
	wantExec := []uint64{1, 1, 1, 0}
	for i, s := range p.Stages {
		if s.OccupiedCycles != wantOcc[i] {
			t.Errorf("stage %s OccupiedCycles = %d, want %d", s.Stage, s.OccupiedCycles, wantOcc[i])
		}
		if s.StallCycles != wantStall[i] {
			t.Errorf("stage %s StallCycles = %d, want %d", s.Stage, s.StallCycles, wantStall[i])
		}
		// Whole-pipe flush counts one flush on every stage.
		if s.Flushes != 1 {
			t.Errorf("stage %s Flushes = %d, want 1", s.Stage, s.Flushes)
		}
		if s.Execs != wantExec[i] {
			t.Errorf("stage %s Execs = %d, want %d", s.Stage, s.Execs, wantExec[i])
		}
	}
	wb := p.Stages[3]
	if wb.RetiredPackets != 1 || wb.RetiredEntries != 2 {
		t.Errorf("WB RetiredPackets/Entries = %d/%d, want 1/2", wb.RetiredPackets, wb.RetiredEntries)
	}

	fetch := m.Ops["fetch"]
	if fetch == nil || fetch.Execs != 1 || fetch.Statements != 3 || fetch.ActiveSteps != 1 {
		t.Fatalf("op fetch = %+v, want Execs=1 Statements=3 ActiveSteps=1", fetch)
	}
	if fetch.StageCycles["pipe.FE"] != 1 {
		t.Errorf("fetch StageCycles[pipe.FE] = %d, want 1", fetch.StageCycles["pipe.FE"])
	}
	free := m.Ops["free"]
	if free == nil || free.Execs != 1 || len(free.StageCycles) != 0 {
		t.Errorf("unassigned op free = %+v, want 1 exec and no stage cycles", free)
	}
	alu := m.Ops["alu"]
	if alu.FirstStep != 2 || alu.LastStep != 2 {
		t.Errorf("alu First/LastStep = %d/%d, want 2/2", alu.FirstStep, alu.LastStep)
	}
}

// TestMetricsOnExecAllocFree: a warm staged execution allocates nothing;
// the stage's track name is built once, at attach time.
func TestMetricsOnExecAllocFree(t *testing.T) {
	m := NewMetrics()
	m.OnAttach(testTopo)
	m.OnExec(opAlu, 0, 2, 7)
	if n := testing.AllocsPerRun(100, func() { m.OnExec(opAlu, 0, 2, 7) }); n != 0 {
		t.Errorf("warm staged OnExec allocates %v times, want 0", n)
	}
}

func TestMetricsText(t *testing.T) {
	m := NewMetrics()
	feed(m)
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`lisa_steps_total{model="m"} 3`,
		`lisa_decodes_total{model="m"} 2`,
		`lisa_decode_cache_hits_total{model="m"} 1`,
		`lisa_stage_occupied_cycles_total{pipe="pipe",stage="FE"} 2`,
		`lisa_stage_stall_cycles_total{pipe="pipe",stage="DC"} 1`,
		`lisa_pipe_full_flushes_total{pipe="pipe"} 1`,
		`lisa_stage_retired_entries_total{pipe="pipe",stage="WB"} 2`,
		`lisa_op_execs_total{op="fetch"} 1`,
		`lisa_op_statements_total{op="fetch"} 3`,
		`lisa_op_stage_cycles_total{op="alu",stage="pipe.EX"} 1`,
		"# TYPE lisa_steps_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q", want)
		}
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	feed(m)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back metricsView
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if back.Steps != m.Steps || back.Decodes != m.Decodes || len(back.Pipes) != len(m.Pipes) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, m.view())
	}
	if back.Ops["fetch"] == nil || back.Ops["fetch"].Statements != 3 {
		t.Errorf("op metrics lost in round trip: %+v", back.Ops)
	}
}

func TestChromeTracer(t *testing.T) {
	c := NewChromeTracer()
	feed(c)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != c.Len() {
		t.Errorf("traceEvents has %d events, Len() = %d", len(doc.TraceEvents), c.Len())
	}

	// One thread_name metadata track per stage plus the unassigned track.
	tracks := map[string]bool{}
	phases := map[string]int{}
	var flowPhases []string
	for _, e := range doc.TraceEvents {
		ph := e["ph"].(string)
		phases[ph]++
		if e["name"] == "thread_name" && ph == "M" {
			tracks[e["args"].(map[string]any)["name"].(string)] = true
		}
		if cat, _ := e["cat"].(string); cat == "packet" {
			flowPhases = append(flowPhases, ph)
		}
	}
	for _, want := range []string{"pipe.FE", "pipe.DC", "pipe.EX", "pipe.WB", "(unassigned ops)"} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, tracks)
		}
	}
	// 4 execs → 4 complete slices; decode/stall/flush/retire instants exist.
	if phases["X"] != 4 {
		t.Errorf("complete slices = %d, want 4", phases["X"])
	}
	if phases["i"] == 0 || phases["C"] == 0 {
		t.Errorf("missing instant or counter events: %v", phases)
	}
	// Packet 7 flows start → through → finish in order.
	want := []string{"s", "t", "t", "f"}
	if len(flowPhases) != len(want) {
		t.Fatalf("flow phases = %v, want %v", flowPhases, want)
	}
	for i := range want {
		if flowPhases[i] != want[i] {
			t.Errorf("flow phase[%d] = %q, want %q", i, flowPhases[i], want[i])
		}
	}
}

// TestChromeHazardArgs checks that attributed stalls and flushes carry
// their cause, resource, op and packet as instant args, whole-pipe events
// are labeled and fan out to every stage track, and unattributed stall
// instants stay args-free.
func TestChromeHazardArgs(t *testing.T) {
	c := NewChromeTracer()
	c.OnAttach(testTopo)
	c.OnStepBegin(0)
	c.OnStall(StallInfo{
		Pipe: 0, Stage: 2, Cause: CauseData,
		Resource: resMemWait, SourceOp: opLd, Packet: 7,
	})
	c.OnFlush(StallInfo{Pipe: 0, Stage: -1, Cause: CauseControl, SourceOp: opBr, Resource: -1})
	c.OnStall(StallInfo{Pipe: 0, Stage: 1, SourceOp: -1, Resource: -1}) // no attribution
	c.OnStepEnd(0)

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	var stalls, flushes, bareStalls int
	for _, e := range doc.TraceEvents {
		if cat, _ := e["cat"].(string); cat != "hazard" {
			continue
		}
		args, _ := e["args"].(map[string]any)
		switch e["name"] {
		case "stall":
			if args == nil {
				bareStalls++
				continue
			}
			stalls++
			for k, want := range map[string]any{
				"cause": "data", "resource": "mem_wait", "op": "ld", "packet": "0x7",
			} {
				if args[k] != want {
					t.Errorf("stall args[%q] = %v, want %v", k, args[k], want)
				}
			}
		case "flush (whole pipe)":
			flushes++
			if args["cause"] != "control" || args["op"] != "br" || args["whole_pipe"] != true {
				t.Errorf("whole-pipe flush args = %v", args)
			}
		}
	}
	if stalls != 1 {
		t.Errorf("attributed stall instants = %d, want 1", stalls)
	}
	if bareStalls != 1 {
		t.Errorf("unattributed stall instants = %d, want 1 (they must stay args-free)", bareStalls)
	}
	// A whole-pipe flush lands on every stage track of the 4-stage pipe.
	if flushes != len(testPipes[0].Stages) {
		t.Errorf("whole-pipe flush instants = %d, want %d", flushes, len(testPipes[0].Stages))
	}
}

func TestChromeTracerEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeTracer().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Errorf("empty trace must still contain a traceEvents array: %v", doc)
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlight(4)
	f.OnAttach(&Topology{Ops: []string{"op"}})
	f.OnStepBegin(0)
	for i := 0; i < 10; i++ {
		f.OnExec(0, 0, i, uint64(i+1))
	}
	ev := f.Events()
	if len(ev) != 4 {
		t.Fatalf("ring of 4 returned %d events", len(ev))
	}
	// Oldest-first: the last 4 of 11 records (step-begin + 10 execs).
	for i, e := range ev {
		wantStage := int32(6 + i)
		if e.Kind != KindExec || e.Stage != wantStage {
			t.Errorf("event[%d] = %+v, want exec at stage %d", i, e, wantStage)
		}
	}

	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "last 4 events") || !strings.Contains(out, "exec op") {
		t.Errorf("Dump output unexpected:\n%s", out)
	}
}

func TestFlightEventStrings(t *testing.T) {
	f := NewFlight(64)
	feed(f)
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"#0 step-begin",
		"#0 decode insn word=0x1234 hit=false",
		"#1 decode insn word=0x1234 hit=true",
		"#0 activate add delay=1",
		"#0 exec fetch pipe=0 stage=0 packet=0x7",
		"#0 behavior fetch statements=3",
		"#0 write pc = 0x2",
		"#2 retire pipe=0 stage=3 packet=0x7 entries=2",
		"#2 write mem[0x10] = 0x2a",
		"#0 stall pipe=0 stage=1 cause=data(mem_wait) by=ld packet=0x7",
		"#1 flush pipe=0 stage=-1 cause=control(cond) by=br packet=0x7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q in:\n%s", want, out)
		}
	}
}

func TestFlightMinimumSize(t *testing.T) {
	f := NewFlight(0)
	f.OnShift(1)
	f.OnShift(2)
	ev := f.Events()
	if len(ev) != 1 || ev[0].Pipe != 2 {
		t.Errorf("size-0 ring should clamp to 1 and keep the newest event: %+v", ev)
	}
}

func TestNopAndStageTrack(t *testing.T) {
	// Nop must satisfy the full interface; feed must not panic.
	var o Observer = Nop{}
	feed(o)
	if got := StageTrack("pipe", "EX"); got != "pipe.EX" {
		t.Errorf("StageTrack = %q, want pipe.EX", got)
	}
}
