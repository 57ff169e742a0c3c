package sim_test

import (
	"strings"
	"testing"

	"golisa/internal/analyze"
	"golisa/internal/cover"
	"golisa/internal/models"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// TestPreboundRunAllocFree checks that the prebound engine's control-step
// loop allocates nothing once warm: after one run has grown the reused
// per-run memory (frames, pipeline entry and packet pools, time wheel and
// run queue) to its high-water mark, every further Reset, program load
// and run to halt on a shared-artifact simulator performs zero heap
// allocations, so each RunStep does. The observed cases attach, once,
// the sinks lisa-report, lisa-cov and the lisa-perf counter pass attach:
// an analyzer, a coverage collector (with its decode hook) and a metrics
// collector, so no event handler may allocate either.
func TestPreboundRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	loop := snapCase{model: "c62x-loop", lisa: models.All["c62x"], kernel: c62xLoopKernel(), max: 5000}
	cases := append(snapCases(), loop)
	for _, observed := range []bool{false, true} {
		for _, c := range cases {
			name := c.model
			if observed {
				name += "/observed"
			}
			t.Run(name, func(t *testing.T) { checkRunAllocFree(t, c, observed) })
		}
	}
}

func checkRunAllocFree(t *testing.T, c snapCase, observed bool) {
	mach := loadCase(t, c)
	as, err := mach.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := as.Assemble(c.kernel)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mach.ProgramMemory()
	if err != nil {
		t.Fatal(err)
	}
	art := sim.NewArtifact(mach.Model, sim.CompiledPrebound)
	if err := art.Prewarm(prog.Words); err != nil {
		t.Fatal(err)
	}
	s := sim.NewFromArtifact(art)
	if observed {
		col := cover.NewCollector(cover.NewMap(mach.Model))
		s.OnDecoded = col.MarkDecoded
		s.SetObserver(trace.Fanout(analyze.New(), col, trace.NewMetrics()))
	}
	var steps uint64
	run := func() {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProgram(pm, prog.Origin, prog.Words); err != nil {
			t.Fatal(err)
		}
		if c.poke != nil {
			c.poke(t, s)
		}
		n, err := s.Run(c.max)
		if err != nil || !s.Halted() {
			t.Fatalf("run: %d steps, halted %v, err %v", n, s.Halted(), err)
		}
		steps = n
	}
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Errorf("%.0f allocations per %d-step run, want 0", allocs, steps)
	}
}

// c62xLoopKernel is a four-iteration dot product on c62x, one instruction
// per fetch packet: loads with memory wait states, a taken branch with its
// delay slots, and IDLE.
func c62xLoopKernel() string {
	var sb strings.Builder
	packet := func(insn string) {
		sb.WriteString(insn + "\n" + strings.Repeat("|| NOP\n", 7))
	}
	for _, insn := range []string{
		"MVK .S1 A3, 1", "MVK .S1 A8, 4", "MVK .S1 A4, 0", "MVK .S1 A5, 100", "MVK .S1 A9, 0", "NOP",
		// loop head at word 48
		"LDW .D1 *A4[0], A6", "LDW .D2 *A5[0], A7", "ADD .L1 A4, A4, A3", "ADD .L2 A5, A5, A3",
		"NOP 1", "MPY .M1 A10, A6, A7", "SUB .L1 A8, A8, A3", "ADD .L1 A9, A9, A10", "BNZ .S1 A8, 48",
		"NOP", "NOP", "NOP", "NOP", "NOP", "STW .D1 A9, *A0[200]", "NOP", "NOP", "NOP", "IDLE", "NOP",
	} {
		packet(insn)
	}
	return sb.String()
}
