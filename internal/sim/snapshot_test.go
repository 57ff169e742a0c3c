package sim_test

// Checkpoint round-trip property tests: for several models and kernels,
// a snapshot taken mid-run and restored into a fresh simulator must
// re-execute cycle-for-cycle identically to the uninterrupted run — same
// architectural state every step, same halt cycle, same state hash.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"golisa/internal/core"
	"golisa/internal/sim"
)

const snapDotKernel = `
        LDI B1, 1
        LDI A8, 16        ; count
        LDI A4, 0         ; &a
        LDI A5, 100       ; &b
        CLRACC
loop:   LD  A6, A4, 0
        LD  A7, A5, 0
        ADD A4, A4, B1
        MAC A6, A7
        ADD A5, A5, B1
        SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        SAT A0
        ST  A0, B0, 200
        HALT
`

const snapSimdKernel = `
        LDI R1, 100       ; &a
        LDI R2, 150       ; &b
        LDI R4, 4         ; chunk count
        VCLR
loop:   VLD V0, R1, 0
        VLD V1, R2, 0
        VMAC V0, V1
        ADDI R1, 4
        ADDI R2, 4
        ADDI R4, -1
        BNZ R4, loop
        NOP               ; branch delay slot
        VSAT V7
        VRED R10, V7
        HALT
`

const snapC62xKernel = `
    MVK .S1 A1, 6
    MVK .S1 A2, 7
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    ADD .L1 A3, A1, A2
    SUB .L2 B1, A2, A1
    MPY .M1 A4, A1, A2
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    IDLE
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
    NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
|| NOP
`

type snapCase struct {
	model  string
	lisa   string // model source; "" loads the builtin model
	kernel string
	// poke seeds data memory before the run (may be nil).
	poke func(t *testing.T, s *sim.Simulator)
	max  uint64
}

func snapCases() []snapCase {
	seedSimple := func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if err := s.SetMem("data_mem", uint64(i), uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMem("data_mem", uint64(100+i), uint64(2*i+3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedSimd := func(t *testing.T, s *sim.Simulator) {
		t.Helper()
		for i := 0; i < 16; i++ {
			_ = s.SetMem("data_mem", uint64(100+i), uint64(i+1))
			_ = s.SetMem("data_mem", uint64(150+i), uint64(3*i+2))
		}
	}
	return []snapCase{
		{"simple16", "", snapDotKernel, seedSimple, 2000},
		{"simd16", "", snapSimdKernel, seedSimd, 2000},
		{"c62x", "", snapC62xKernel, nil, 2000},
		// hazard16 stalls and flushes mid-step, where recycled pipeline
		// packets are still referenced by work queued in the same step.
		{"hazard16", readFixture("hazard16.lisa"), readFixture("hazard16.s"), nil, 2000},
	}
}

func readFixture(name string) string {
	b, err := os.ReadFile(filepath.Join("..", "models", "testdata", name))
	if err != nil {
		panic(err)
	}
	return string(b)
}

func loadCase(t *testing.T, c snapCase) *core.Machine {
	t.Helper()
	m, err := core.LoadBuiltin(c.model)
	if c.lisa != "" {
		m, err = core.LoadMachine(c.model, c.lisa)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newSnapSim(t *testing.T, c snapCase, mode sim.Mode) *sim.Simulator {
	t.Helper()
	s, _, err := loadCase(t, c).AssembleAndLoad(c.kernel, mode)
	if err != nil {
		t.Fatal(err)
	}
	if c.poke != nil {
		c.poke(t, s)
	}
	return s
}

// runTo steps the simulator to the given cycle (or halt, whichever is
// first) and returns the cycle reached.
func runTo(t *testing.T, s *sim.Simulator, cycle uint64) uint64 {
	t.Helper()
	for s.Step() < cycle && !s.Halted() {
		if err := s.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	return s.Step()
}

func TestSnapshotRoundTripMatchesUninterruptedRun(t *testing.T) {
	for _, c := range snapCases() {
		c := c
		t.Run(c.model, func(t *testing.T) {
			var modeHashes []uint64 // the first engine's per-cycle hashes
			for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
				t.Run(mode.String(), func(t *testing.T) {
					// Reference: uninterrupted run, with per-cycle hashes.
					ref := newSnapSim(t, c, mode)
					var hashes []uint64
					for !ref.Halted() && ref.Step() < c.max {
						hashes = append(hashes, ref.StateHash())
						if err := ref.RunStep(); err != nil {
							t.Fatal(err)
						}
					}
					total := ref.Step()
					if !ref.Halted() {
						t.Fatalf("reference did not halt in %d cycles", c.max)
					}
					// Every engine passes through the same states.
					if modeHashes == nil {
						modeHashes = hashes
					} else if !slices.Equal(hashes, modeHashes) {
						t.Fatalf("per-cycle state hashes differ from the %s engine's", sim.Interpretive)
					}

					// Snapshot at several mid-run cycles; restore into a
					// fresh simulator; re-run and require cycle-for-cycle
					// hash equality and identical final state.
					for _, k := range []uint64{0, 1, 3, total / 3, total / 2, total - 1} {
						src := newSnapSim(t, c, mode)
						runTo(t, src, k)
						snap := src.Snapshot()
						if got := snap.Hash(); got != hashes[k] {
							t.Fatalf("cycle %d: snapshot hash %#x, reference run had %#x", k, got, hashes[k])
						}

						restored := newSnapSim(t, c, mode)
						if err := restored.Restore(snap); err != nil {
							t.Fatalf("restore at cycle %d: %v", k, err)
						}
						if restored.Step() != k {
							t.Fatalf("restored to cycle %d, want %d", restored.Step(), k)
						}
						for i := k; i < total; i++ {
							if got := restored.StateHash(); got != hashes[i] {
								t.Fatalf("restored-from-%d run diverged at cycle %d: hash %#x, want %#x", k, i, got, hashes[i])
							}
							if err := restored.RunStep(); err != nil {
								t.Fatal(err)
							}
						}
						if !restored.Halted() {
							t.Fatalf("restored-from-%d run did not halt at cycle %d", k, total)
						}
						if eq, detail := restored.S.Equal(ref.S); !eq {
							t.Fatalf("restored-from-%d final state differs at %s", k, detail)
						}
						// Taking the snapshot must not disturb the source run.
						for !src.Halted() && src.Step() < c.max {
							if err := src.RunStep(); err != nil {
								t.Fatal(err)
							}
						}
						if eq, detail := src.S.Equal(ref.S); !eq {
							t.Fatalf("snapshot disturbed source run: differs at %s", detail)
						}
					}
				})
			}
		})
	}
}

// TestSnapshotIdempotent checks snapshot→restore→snapshot is a fixpoint.
func TestSnapshotIdempotent(t *testing.T) {
	c := snapCases()[0]
	s := newSnapSim(t, c, sim.Compiled)
	runTo(t, s, 9)
	snap := s.Snapshot()
	s2 := newSnapSim(t, c, sim.Compiled)
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	again := s2.Snapshot()
	if snap.Hash() != again.Hash() {
		t.Fatalf("restore→snapshot changed hash: %#x → %#x", snap.Hash(), again.Hash())
	}
}

// TestResetClearsRestoredMemory restores a snapshot, whose program memory
// holds the kernel, into a simulator that never wrote a memory, and
// resets it: every element reads zero again, at its memory's width.
func TestResetClearsRestoredMemory(t *testing.T) {
	c := snapCases()[0]
	src := newSnapSim(t, c, sim.Compiled)
	runTo(t, src, 9)
	m := loadCase(t, c)
	s, err := m.NewSimulator(sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if w, err := s.Mem("prog_mem", 0); err != nil || w.IsZero() {
		t.Fatalf("restored prog_mem[0] = %v, %v; want the kernel's first word", w, err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Model.Resources {
		if !r.IsMemory() || r.IsAlias {
			continue
		}
		for i := range r.Size {
			v, err := s.S.ReadElem(r, r.Base+i)
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsZero() || v.Width() != r.Width {
				t.Fatalf("after reset %s[%#x] = %#x in %d bits, want 0 in %d", r.Name, r.Base+i, v.Uint(), v.Width(), r.Width)
			}
		}
	}
}

// TestRestoreRejectsWrongModel checks the model guard.
func TestRestoreRejectsWrongModel(t *testing.T) {
	c := snapCases()[0]
	s := newSnapSim(t, c, sim.Compiled)
	snap := s.Snapshot()
	other, err := core.LoadBuiltin("simd16")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := other.NewSimulator(sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot of a different model")
	}
}

// TestRestoreRejectsUnboundInstances: a snapshot is outside input, and the
// engines read an instance's labels and operands without checking, so
// Restore rejects an instance tree decoding could not have built.
func TestRestoreRejectsUnboundInstances(t *testing.T) {
	c := snapCases()[0]
	src := newSnapSim(t, c, sim.Compiled)
	runTo(t, src, 9)
	// bound returns the first packet entry's instance that has operands.
	bound := func(snap *sim.Snapshot) *sim.InstSnap {
		for _, p := range snap.Pipes {
			for _, pkt := range p.Slots {
				if pkt == nil {
					continue
				}
				for _, e := range pkt.Entries {
					if len(e.Inst.Bindings) > 0 {
						return e.Inst
					}
				}
			}
		}
		t.Fatal("no bound instance in flight")
		return nil
	}
	for name, corrupt := range map[string]func(is *sim.InstSnap){
		"unbound":       func(is *sim.InstSnap) { is.Labels, is.Bindings = nil, nil },
		"operand lost":  func(is *sim.InstSnap) { is.Bindings = is.Bindings[1:] },
		"wrong operand": func(is *sim.InstSnap) { is.Bindings[0].Inst = &sim.InstSnap{Op: "nop"} },
	} {
		snap := src.Snapshot()
		corrupt(bound(snap))
		if err := newSnapSim(t, c, sim.Compiled).Restore(snap); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
		}
	}
	// The uncorrupted snapshot still restores.
	if err := newSnapSim(t, c, sim.Compiled).Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
}
