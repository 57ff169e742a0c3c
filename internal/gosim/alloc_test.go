//go:build !race

package gosim

import "testing"

// TestIRStepAllocFree checks that the IR machine's control step allocates
// nothing once warm: after one run to halt, every step of a second run of
// the same program performs zero heap allocations. (The race runtime
// allocates on its own, hence the build constraint.)
func TestIRStepAllocFree(t *testing.T) {
	_, _, p := loadPair(t, "simple16", "", progLoop)
	m := p.NewMachine()
	steps, err := m.Run(10_000)
	if err != nil || !m.Halted() {
		t.Fatalf("warm-up run: %d steps, halted %v, err %v", steps, m.Halted(), err)
	}
	m.Reset()
	// AllocsPerRun calls Step once more before it counts, so this stays
	// within the program's steps.
	if allocs := testing.AllocsPerRun(int(steps)-1, m.Step); allocs != 0 {
		t.Errorf("%.2f allocations per step, want 0", allocs)
	}
	if m.Cycles() != steps || !m.Halted() || m.Err() != nil {
		t.Fatalf("second run: %d of %d steps, halted %v, err %v", m.Cycles(), steps, m.Halted(), m.Err())
	}
}
