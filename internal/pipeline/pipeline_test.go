package pipeline

import (
	"testing"

	"golisa/internal/model"
	"golisa/internal/trace"
)

func newPipe(t *testing.T, stages ...string) *Pipe {
	t.Helper()
	m := model.NewModel("t")
	def := &model.Pipeline{Name: "p", Stages: stages}
	if err := m.AddPipeline(def); err != nil {
		t.Fatal(err)
	}
	return New(m.Pipeline("p"))
}

func entry(stage int) *Entry { return &Entry{StageIdx: stage} }

func readyStages(p *Pipe) []int {
	var out []int
	for _, r := range p.Ready() {
		out = append(out, r.Stage)
	}
	return out
}

func TestPacketFlowsThroughStages(t *testing.T) {
	p := newPipe(t, "A", "B", "C")
	e0, e1, e2 := entry(0), entry(1), entry(2)
	p.InsertFront(e0, e1, e2)

	// Step 1: only the stage-0 entry is ready.
	r := p.Ready()
	if len(r) != 1 || r[0].Entry != e0 {
		t.Fatalf("step1 ready: %v", readyStages(p))
	}
	r[0].Entry.MarkExecuted()
	p.RequestShift()
	p.EndStep()

	// Step 2: packet is in stage B.
	r = p.Ready()
	if len(r) != 1 || r[0].Entry != e1 || r[0].Stage != 1 {
		t.Fatalf("step2 ready: %v", readyStages(p))
	}
	r[0].Entry.MarkExecuted()
	p.RequestShift()
	p.EndStep()

	// Step 3: stage C.
	r = p.Ready()
	if len(r) != 1 || r[0].Entry != e2 {
		t.Fatalf("step3 ready: %v", readyStages(p))
	}
	r[0].Entry.MarkExecuted()
	p.RequestShift()
	retired := p.EndStep()
	if retired == nil {
		t.Fatal("packet should retire from last stage")
	}
	if got := p.Ready(); len(got) != 0 {
		t.Fatalf("pipe should be empty, ready=%v", readyStages(p))
	}
}

func TestExecutedEntriesDoNotRerunWhileStalled(t *testing.T) {
	p := newPipe(t, "A", "B")
	e := entry(0)
	p.InsertFront(e)
	r := p.Ready()
	if len(r) != 1 {
		t.Fatal("entry should be ready")
	}
	r[0].Entry.MarkExecuted()
	// Stall stage 0: no shift.
	p.Stall(0, trace.StallInfo{})
	p.RequestShift()
	p.EndStep()
	if p.Slots[0] == nil {
		t.Fatal("stalled packet should stay in stage 0")
	}
	if len(p.Ready()) != 0 {
		t.Error("executed entry re-offered during stall")
	}
}

func TestStallBackPressure(t *testing.T) {
	p := newPipe(t, "A", "B", "C")
	first := p.InsertFront(entry(0))
	p.RequestShift()
	p.EndStep() // first → B
	second := p.InsertFront(entry(0))
	// Stall B: first stays; second must not move into B.
	p.Stall(1, trace.StallInfo{})
	p.RequestShift()
	p.EndStep()
	if p.Slots[1] != first {
		t.Error("stalled packet moved")
	}
	if p.Slots[0] != second {
		t.Error("upstream packet should be held by occupancy back-pressure")
	}
	// Next step without stall: both advance.
	p.RequestShift()
	p.EndStep()
	if p.Slots[2] != first || p.Slots[1] != second {
		t.Errorf("after release: slots=%v %v %v", p.Slots[0], p.Slots[1], p.Slots[2])
	}
}

func TestBubbleAfterStalledStage(t *testing.T) {
	p := newPipe(t, "A", "B", "C")
	pkt := p.InsertFront(entry(0))
	p.RequestShift()
	p.EndStep() // pkt → B
	// Stall A only (nothing there); B should still advance.
	p.Stall(0, trace.StallInfo{})
	p.RequestShift()
	p.EndStep()
	if p.Slots[2] != pkt {
		t.Error("downstream stage should advance past a stalled empty stage")
	}
}

func TestWholePipeStall(t *testing.T) {
	p := newPipe(t, "A", "B")
	pkt := p.InsertFront(entry(0))
	p.Stall(-1, trace.StallInfo{})
	p.RequestShift()
	p.EndStep()
	if p.Slots[0] != pkt {
		t.Error("whole-pipe stall should hold stage 0")
	}
	if p.Stalls == 0 {
		t.Error("stall counter not incremented")
	}
}

func TestFlushStageAndPipe(t *testing.T) {
	p := newPipe(t, "A", "B")
	p.InsertFront(entry(0))
	p.RequestShift()
	p.EndStep()
	p.InsertFront(entry(0))
	p.Flush(1, trace.StallInfo{})
	if p.Slots[1] != nil {
		t.Error("stage flush failed")
	}
	if p.Slots[0] == nil {
		t.Error("stage flush cleared wrong slot")
	}
	p.Flush(-1, trace.StallInfo{})
	if p.Slots[0] != nil {
		t.Error("pipe flush failed")
	}
	if p.Flushes != 2 {
		t.Errorf("flush count = %d", p.Flushes)
	}
}

func TestLatchAppliesAtBeginStep(t *testing.T) {
	p := newPipe(t, "A", "B")
	e := entry(0)
	p.LatchNext(e)
	if len(p.Ready()) != 0 {
		t.Fatal("latched entry visible before BeginStep")
	}
	p.BeginStep()
	r := p.Ready()
	if len(r) != 1 || r[0].Entry != e {
		t.Fatal("latched entry not inserted at stage 0")
	}
}

func TestLatchMergesWithOccupiedSlot(t *testing.T) {
	p := newPipe(t, "A", "B")
	pkt := p.InsertFront(entry(0))
	p.LatchNext(entry(0))
	p.BeginStep()
	if p.Slots[0] != pkt || len(pkt.Entries) != 2 {
		t.Error("latch should merge into the occupying packet")
	}
}

func TestNoShiftWithoutRequest(t *testing.T) {
	p := newPipe(t, "A", "B")
	pkt := p.InsertFront(entry(1))
	p.EndStep()
	if p.Slots[0] != pkt {
		t.Error("packet moved without a shift request")
	}
	if p.Shifts != 0 {
		t.Error("shift counted without request")
	}
}

func TestStallClearsAfterStep(t *testing.T) {
	p := newPipe(t, "A", "B")
	p.Stall(0, trace.StallInfo{})
	if !p.Stalled(0) {
		t.Fatal("stall not recorded")
	}
	p.EndStep()
	if p.Stalled(0) {
		t.Error("stall should clear at end of step")
	}
}

func TestInsertFrontMerges(t *testing.T) {
	p := newPipe(t, "A", "B")
	pkt1 := p.InsertFront(entry(0))
	pkt2 := p.InsertFront(entry(1))
	if pkt1 != pkt2 {
		t.Error("InsertFront should merge into the same stage-0 packet within a step")
	}
	if len(pkt1.Entries) != 2 {
		t.Errorf("entries = %d", len(pkt1.Entries))
	}
}

func TestOccupancyAndReset(t *testing.T) {
	p := newPipe(t, "A", "B", "C")
	p.InsertFront(entry(0))
	p.RequestShift()
	p.EndStep()
	occ := p.Occupancy()
	if occ[0] || !occ[1] || occ[2] {
		t.Errorf("occupancy: %v", occ)
	}
	p.Reset()
	for _, o := range p.Occupancy() {
		if o {
			t.Error("reset left packets behind")
		}
	}
}

func TestTwoInFlightPackets(t *testing.T) {
	// Two packets in consecutive stages both offer their entries.
	p := newPipe(t, "A", "B")
	a := entry(0)
	b := entry(1)
	pkt := p.InsertFront(a, b)
	_ = pkt
	a.MarkExecuted()
	p.RequestShift()
	p.EndStep()
	c := entry(0)
	p.InsertFront(c)
	r := p.Ready()
	if len(r) != 2 {
		t.Fatalf("ready = %d, want 2 (stage0 new, stage1 old)", len(r))
	}
	// Stage-ascending order.
	if r[0].Entry != c || r[1].Entry != b {
		t.Error("ready order should be stage-ascending")
	}
}

// TestFlushedPacketRecycledNextStep checks the recycling contract: work
// queued earlier in a step may still name a packet flushed later in that
// step, so the packet keeps its identity, id and entries until the next
// BeginStep; only then is it reused, under a fresh trace id.
func TestFlushedPacketRecycledNextStep(t *testing.T) {
	p := newPipe(t, "A", "B")
	old := p.InsertFront(p.NewEntry(nil, 0, 0))
	id := old.ID
	p.Flush(-1, trace.StallInfo{})
	if fresh := p.InsertFront(entry(0)); fresh == old {
		t.Fatal("flushed packet reused within its step")
	}
	if old.ID != id || len(old.Entries) != 1 {
		t.Fatalf("flushed packet changed within its step: id %d→%d, %d entries", id, old.ID, len(old.Entries))
	}
	p.Flush(-1, trace.StallInfo{})
	p.EndStep()
	p.BeginStep()
	reused := p.InsertFront(p.NewEntry(nil, 0, 0))
	if reused != old && reused.ID == id {
		t.Fatal("recycled packet kept its trace id")
	}
	if len(reused.Entries) != 1 {
		t.Fatalf("recycled packet carries %d entries, want 1", len(reused.Entries))
	}
}

// TestOpNames round-trips the pipeline operation spellings.
func TestOpNames(t *testing.T) {
	for _, name := range []string{"shift", "stall", "flush"} {
		if op, ok := ParseOp(name); !ok || op.String() != name {
			t.Errorf("ParseOp(%q) = %v, %v", name, op, ok)
		}
	}
	if op, ok := ParseOp(""); ok || op != 0 {
		t.Errorf("ParseOp(\"\") = %v, %v", op, ok)
	}
	if _, ok := ParseOp("insert"); ok {
		t.Error("ParseOp accepted insert")
	}
}
