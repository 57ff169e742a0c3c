package sim

import (
	"testing"

	"golisa/internal/trace"
)

// recorder counts events per hook for integration assertions.
type recorder struct {
	trace.Nop
	topo      *trace.Topology
	model     string
	pipes     []trace.PipeInfo
	steps     int
	decodes   int
	hits      int
	execs     map[string]int
	behaviors map[string]uint64
	stalls    [][2]int
	flushes   [][2]int
	retires   int
	writes    map[string]int
	memWrites map[string]int
	occupied  int
}

func newRecorder() *recorder {
	return &recorder{
		execs:     map[string]int{},
		behaviors: map[string]uint64{},
		writes:    map[string]int{},
		memWrites: map[string]int{},
	}
}

func (r *recorder) OnAttach(t *trace.Topology) {
	r.topo = t
	r.model = t.Model
	// Copy: the slice contract allows reuse by the caller.
	r.pipes = append([]trace.PipeInfo(nil), t.Pipes...)
}
func (r *recorder) OnStepEnd(uint64)                  { r.steps++ }
func (r *recorder) OnExec(op int, _, _ int, _ uint64) { r.execs[r.topo.Op(op)]++ }
func (r *recorder) OnBehavior(op int, n uint64)       { r.behaviors[r.topo.Op(op)] += n }
func (r *recorder) OnStall(i trace.StallInfo)         { r.stalls = append(r.stalls, [2]int{i.Pipe, i.Stage}) }
func (r *recorder) OnFlush(i trace.StallInfo)         { r.flushes = append(r.flushes, [2]int{i.Pipe, i.Stage}) }
func (r *recorder) OnRetire(int, int, uint64, int)    { r.retires++ }
func (r *recorder) OnResourceWrite(res int, _ uint64) { r.writes[r.topo.Resource(res)]++ }
func (r *recorder) OnMemWrite(res int, _, _ uint64)   { r.memWrites[r.topo.Resource(res)]++ }
func (r *recorder) OnDecode(_ int, _ uint64, hit bool) {
	r.decodes++
	if hit {
		r.hits++
	}
}
func (r *recorder) OnOccupancy(_ int, occ []bool) {
	for _, o := range occ {
		if o {
			r.occupied++
		}
	}
}

func TestObserverEvents(t *testing.T) {
	s := newSim(t, Interpretive, []uint64{
		tADDI(1, 5),
		tST(1, 7),
		tHALT,
	})
	r := newRecorder()
	m := trace.NewMetrics()
	s.SetObserver(trace.Fanout(r, m))

	n, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}

	if r.model != "tiny16" {
		t.Errorf("OnAttach model = %q, want tiny16", r.model)
	}
	if len(r.pipes) != 1 || r.pipes[0].Name != "pipe" || len(r.pipes[0].Stages) != 3 {
		t.Fatalf("OnAttach topology = %+v, want pipe{FE EX WB}", r.pipes)
	}
	if uint64(r.steps) != n {
		t.Errorf("OnStepEnd fired %d times over %d steps", r.steps, n)
	}
	// One decode per fetched word: addi, st, halt, plus the word after
	// HALT fetched before the halt flag latches.
	if r.decodes != 4 {
		t.Errorf("decodes = %d, want 4", r.decodes)
	}
	for _, op := range []string{"main", "fetch", "addi", "st", "halt_op"} {
		if r.execs[op] == 0 {
			t.Errorf("no OnExec recorded for %s (execs=%v)", op, r.execs)
		}
	}
	// The interpreter attributes behavior statements per operation.
	if r.behaviors["addi"] == 0 || r.behaviors["main"] == 0 {
		t.Errorf("behavior statements missing: %v", r.behaviors)
	}
	// Every packet leaving WB retires.
	if r.retires == 0 {
		t.Errorf("no OnRetire events")
	}
	// main writes cyc each step; fetch writes ir and pc.
	if r.writes["cyc"] == 0 || r.writes["ir"] == 0 || r.writes["pc"] == 0 {
		t.Errorf("resource writes missing: %v", r.writes)
	}
	// ST stores into dmem through WriteElem.
	if r.memWrites["dmem"] != 1 {
		t.Errorf("dmem writes = %d, want 1 (all: %v)", r.memWrites["dmem"], r.memWrites)
	}
	if r.occupied == 0 {
		t.Errorf("occupancy sampling recorded no occupied stages")
	}

	// The Metrics observer riding along must agree with Profile().
	p := s.Profile()
	if m.Steps != p.Steps {
		t.Errorf("Metrics.Steps = %d, Profile.Steps = %d", m.Steps, p.Steps)
	}
	if m.Decodes != p.Decodes || m.DecodeHits != p.DecodeHits {
		t.Errorf("Metrics decodes %d/%d vs Profile %d/%d",
			m.Decodes, m.DecodeHits, p.Decodes, p.DecodeHits)
	}
	var retired uint64
	for _, pm := range m.Pipes {
		for _, st := range pm.Stages {
			retired += st.RetiredPackets
		}
	}
	if retired != p.Retired {
		t.Errorf("Metrics retired %d vs Profile %d", retired, p.Retired)
	}
}

func TestObserverStallFlush(t *testing.T) {
	s := newSim(t, Compiled, []uint64{tADDI(1, 1), tADDI(2, 2), tADDI(3, 3), tHALT})
	r := newRecorder()
	s.SetObserver(r)

	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetScalar("stall_req", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	// tiny16 stalls pipe.EX (stage 1) and pipe.FE (stage 0).
	if len(r.stalls) != 2 {
		t.Fatalf("stalls = %v, want 2 stage stalls", r.stalls)
	}
	want := map[[2]int]bool{{0, 1}: true, {0, 0}: true}
	for _, st := range r.stalls {
		if !want[st] {
			t.Errorf("unexpected stall %v", st)
		}
	}

	_ = s.SetScalar("stall_req", 0)
	if err := s.SetScalar("flush_req", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	// pipe.flush() is a whole-pipe flush: stage -1.
	if len(r.flushes) != 1 || r.flushes[0] != [2]int{0, -1} {
		t.Errorf("flushes = %v, want [[0 -1]]", r.flushes)
	}
}

func TestObserverDetach(t *testing.T) {
	s := newSim(t, Compiled, []uint64{tADDI(1, 1), tHALT})
	r := newRecorder()
	s.SetObserver(r)
	if err := s.RunStep(); err != nil {
		t.Fatal(err)
	}
	if r.steps != 1 {
		t.Fatalf("observer not receiving events: steps = %d", r.steps)
	}

	s.SetObserver(nil)
	if s.Observer() != nil {
		t.Fatal("Observer() should be nil after detach")
	}
	stepsBefore, writesBefore := r.steps, len(r.writes)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if r.steps != stepsBefore || len(r.writes) != writesBefore {
		t.Errorf("detached observer still received events (steps %d→%d)", stepsBefore, r.steps)
	}
	// Profile still works without any observer attached.
	if p := s.Profile(); p.Retired == 0 {
		t.Errorf("Profile.Retired = 0 after detached run, want > 0")
	}
}

// stallLog records the attribution of every stall.
type stallLog struct {
	trace.Nop
	infos []trace.StallInfo
}

func (l *stallLog) OnStall(i trace.StallInfo) { l.infos = append(l.infos, i) }

// TestStallGuardIgnoresShadowedResource: a guard that reads a local named
// like a resource reads no resource, so the stall it guards is a control
// stall, not a data hazard on the shadowed resource.
func TestStallGuardIgnoresShadowedResource(t *testing.T) {
	m := buildModel(t, `
RESOURCE {
  REGISTER bit[8] busy;
  PIPELINE pipe = { A; B };
}
OPERATION main {
  BEHAVIOR {
    int busy = 1;
    if (busy) { pipe.A.stall(); }
  }
  ACTIVATION { pipe.shift() }
}
`)
	for _, mode := range []Mode{Interpretive, Compiled, CompiledPrebound} {
		s := New(m, mode)
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		log := &stallLog{}
		s.SetObserver(log)
		if _, err := s.Run(3); err != nil {
			t.Fatal(err)
		}
		if len(log.infos) == 0 {
			t.Fatalf("%v: no stalls", mode)
		}
		for _, i := range log.infos {
			if i.Cause != trace.CauseControl || i.Resource != -1 {
				t.Errorf("%v: stall blamed on cause %v, resource %d; want control, -1", mode, i.Cause, i.Resource)
			}
		}
	}
}
