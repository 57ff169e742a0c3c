package core

import (
	"testing"

	"golisa/internal/sim"
	"golisa/internal/trace"
)

func loadSimd16(t *testing.T) *Machine {
	t.Helper()
	m, err := LoadBuiltin("simd16")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimd16VectorAddMul(t *testing.T) {
	m := loadSimd16(t)
	src := `
    LDI R1, 100
    LDI R2, 104
    NOP
    VLD V0, R1, 0     ; a[0..3]
    VLD V1, R2, 0     ; b[0..3]
    VADD V2, V0, V1
    VMUL V3, V0, V1
    LDI R3, 200
    NOP
    VST V2, R3, 0
    VST V3, R3, 4
    HALT
`
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			s, _, err := m.AssembleAndLoad(src, mode)
			if err != nil {
				t.Fatal(err)
			}
			a := []int64{1, 2, 3, 4}
			b := []int64{10, 20, 30, 40}
			for i := 0; i < 4; i++ {
				_ = s.SetMem("data_mem", uint64(100+i), uint64(a[i]))
				_ = s.SetMem("data_mem", uint64(104+i), uint64(b[i]))
			}
			if _, err := s.Run(1000); err != nil {
				t.Fatal(err)
			}
			if !s.Halted() {
				t.Fatal("did not halt")
			}
			for i := 0; i < 4; i++ {
				sum, _ := s.Mem("data_mem", uint64(200+i))
				prod, _ := s.Mem("data_mem", uint64(204+i))
				if sum.Int() != a[i]+b[i] {
					t.Errorf("lane %d sum = %d, want %d", i, sum.Int(), a[i]+b[i])
				}
				if prod.Int() != a[i]*b[i] {
					t.Errorf("lane %d prod = %d, want %d", i, prod.Int(), a[i]*b[i])
				}
			}
		})
	}
}

func TestSimd16DotProductViaMACAndReduce(t *testing.T) {
	// 16-element dot product: 4 VMACs over 4-lane chunks, saturate, reduce.
	m := loadSimd16(t)
	src := `
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
	s, _, err := m.AssembleAndLoad(src, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < 16; i++ {
		av, bv := int64(i+1), int64(2*i-5)
		_ = s.SetMem("data_mem", uint64(100+i), uint64(av))
		_ = s.SetMem("data_mem", uint64(150+i), uint64(bv))
		want += av * bv
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Mem("R", 10)
	if v.Int() != want {
		t.Errorf("dot = %d, want %d", v.Int(), want)
	}
}

func TestSimd16BroadcastAndZeroAlias(t *testing.T) {
	m := loadSimd16(t)
	src := `
    LDI R5, 7
    NOP
    VBCAST V4, R5
    VZERO V5
    VSUB V6, V4, V5   ; V6 = broadcast(7)
    VRED R9, V6       ; 4*7
    HALT
`
	s, _, err := m.AssembleAndLoad(src, sim.CompiledPrebound)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Mem("R", 9)
	if v.Int() != 28 {
		t.Errorf("R9 = %d, want 28", v.Int())
	}
	// VZERO must have zeroed all 4 lanes of V5 (banked access).
	for lane := uint64(0); lane < 4; lane++ {
		lv, err := s.S.ReadBanked(m.Model.Resource("vreg"), 5, lane)
		if err != nil {
			t.Fatal(err)
		}
		if lv.Int() != 0 {
			t.Errorf("V5 lane %d = %d", lane, lv.Int())
		}
	}
}

func TestSimd16SaturationPerLane(t *testing.T) {
	m := loadSimd16(t)
	src := `
    LDI R1, 100
    LDI R5, 30000
    NOP
    VBCAST V0, R5
    VCLR
    VMAC V0, V0
    VMAC V0, V0
    VMAC V0, V0
    VMAC V0, V0       ; 4 * 9e8 = 3.6e9 > 2^31-1
    VSAT V1
    VST V1, R1, 0
    HALT
`
	s, _, err := m.AssembleAndLoad(src, sim.Interpretive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		v, _ := s.Mem("data_mem", 100+i)
		if v.Int() != 0x7fffffff {
			t.Errorf("lane %d = %d, want saturated max", i, v.Int())
		}
	}
}

func TestSimd16CrossModeEquivalence(t *testing.T) {
	m := loadSimd16(t)
	src := `
        LDI R1, 100
        LDI R4, 3
        VCLR
loop:   VLD V0, R1, 0
        VMAC V0, V0
        ADDI R1, 4
        ADDI R4, -1
        BNZ R4, loop
        NOP
        VSAT V2
        VRED R8, V2
        HALT
`
	run := func(mode sim.Mode) *sim.Simulator {
		s, _, err := m.AssembleAndLoad(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			_ = s.SetMem("data_mem", uint64(100+i), uint64(i*3+1))
		}
		if _, err := s.Run(10000); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := run(sim.Interpretive)
	for _, mode := range []sim.Mode{sim.Compiled, sim.CompiledPrebound} {
		s := run(mode)
		if eq, diff := ref.S.Equal(s.S); !eq {
			t.Errorf("%v differs at %s", mode, diff)
		}
		if s.Step() != ref.Step() {
			t.Errorf("%v cycles %d != %d", mode, s.Step(), ref.Step())
		}
	}
}

func TestSimd16Stats(t *testing.T) {
	st := loadSimd16(t).Stats()
	if st.Instructions < 15 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	if st.Aliases != 1 {
		t.Errorf("aliases = %d, want 1 (VZERO)", st.Aliases)
	}
}

func TestSimd16DisassemblerRoundTrip(t *testing.T) {
	m := loadSimd16(t)
	a, _ := m.NewAssembler()
	d, _ := m.NewDisassembler()
	for _, stmt := range []string{
		"VADD V1, V2, V3", "VSUB V0, V7, V1", "VMUL V4, V5, V6",
		"VMAC V1, V2", "VCLR", "VSAT V3",
		"VLD V2, R4, 16", "VST V2, R4, 16", "VBCAST V1, R15", "VRED R3, V6",
		"LDI R1, -7", "ADDI R2, 100", "B 42", "BNZ R3, 7", "HALT", "NOP",
	} {
		w, err := a.AssembleStatement(stmt)
		if err != nil {
			t.Errorf("assemble %q: %v", stmt, err)
			continue
		}
		text, err := d.Disassemble(w)
		if err != nil {
			t.Errorf("disassemble %q: %v", stmt, err)
			continue
		}
		w2, err := a.AssembleStatement(text)
		if err != nil || w2 != w {
			t.Errorf("roundtrip %q → %q: %#x vs %#x (%v)", stmt, text, w, w2, err)
		}
	}
}

// vregWrites counts the observed element writes of the vector register
// file by reported address.
type vregWrites struct {
	trace.Nop
	vreg  int // the resource id of vreg
	addrs map[uint64]int
}

func (w *vregWrites) OnMemWrite(resource int, addr, value uint64) {
	if resource == w.vreg {
		w.addrs[addr]++
	}
}

// TestSimd16BankedWritesReachObserver: writes through vreg[bank][lane]
// reach OnMemWrite with the bank folded into the address (bank*4 + lane),
// on every engine. Two VLDs and a VADD write 12 vreg elements.
func TestSimd16BankedWritesReachObserver(t *testing.T) {
	m := loadSimd16(t)
	src := `
    LDI R1, 100
    LDI R2, 104
    NOP
    VLD V0, R1, 0
    VLD V1, R2, 0
    VADD V2, V0, V1
    HALT
`
	for _, mode := range []sim.Mode{sim.Interpretive, sim.Compiled, sim.CompiledPrebound} {
		t.Run(mode.String(), func(t *testing.T) {
			s, _, err := m.AssembleAndLoad(src, mode)
			if err != nil {
				t.Fatal(err)
			}
			w := &vregWrites{vreg: m.Model.Resource("vreg").Index, addrs: map[uint64]int{}}
			s.SetObserver(w)
			if _, err := s.Run(1000); err != nil {
				t.Fatal(err)
			}
			// V0, V1, V2 are banks 0, 1, 2: addresses 0..11, once each.
			if len(w.addrs) != 12 {
				t.Errorf("vreg writes at %d addresses, want 12: %v", len(w.addrs), w.addrs)
			}
			for a := uint64(0); a < 12; a++ {
				if w.addrs[a] != 1 {
					t.Errorf("vreg address %d written %d times, want 1", a, w.addrs[a])
				}
			}
		})
	}
}
