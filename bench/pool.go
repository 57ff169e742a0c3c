package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// entry is one pool program: a parameterised kernel rendered to assembly
// source for one model. Every kernel initialises its own data memory in a
// prologue, so every engine starts from reset plus the program alone.
type entry struct {
	Name   string // unique across all pools; the golden file's key
	Model  string
	Source string
	// Weight is how many times the entry occurs in one round of the job
	// sequence.
	Weight int
}

// asmText accumulates assembly source with unique label suffixes.
type asmText struct {
	b   strings.Builder
	lbl int
}

func (t *asmText) op(format string, args ...any) {
	t.b.WriteString("\t")
	fmt.Fprintf(&t.b, format, args...)
	t.b.WriteString("\n")
}

// label emits a fresh label and returns its name.
func (t *asmText) label(stem string) string {
	t.lbl++
	name := fmt.Sprintf("%s%d", stem, t.lbl)
	fmt.Fprintf(&t.b, "%s:\n", name)
	return name
}

func (t *asmText) String() string { return t.b.String() }

// --- simple16 ----------------------------------------------------------------
//
// Branches have two delay slots and loads one; both are filled with NOPs.
// B1 holds the constant 1 and A15 the outer repetition counter throughout.

// s16Begin loads the constants and fills n words of data memory at base
// with start, start+step, ...
func s16Begin(t *asmText, fills ...[4]int) {
	t.op("LDI B1, 1")
	for _, f := range fills {
		base, n, start, step := f[0], f[1], f[2], f[3]
		t.op("LDI A4, %d", base)
		t.op("LDI A8, %d", n)
		t.op("LDI A6, %d", start)
		t.op("LDI B2, %d", step)
		l := t.label("fill")
		t.op("ST A6, A4, 0")
		t.op("ADD A4, A4, B1")
		t.op("ADD A6, A6, B2")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", l)
		t.op("NOP")
		t.op("NOP")
	}
}

// s16Repeat wraps body in a loop run reps times; body may use every
// register except A15 and B1.
func s16Repeat(t *asmText, reps int, body func()) {
	t.op("LDI A15, %d", reps)
	l := t.label("rep")
	body()
	t.op("SUB A15, A15, B1")
	t.op("BNZ A15, %s", l)
	t.op("NOP")
	t.op("NOP")
}

// s16End halts and pads with NOPs: the pipeline fetches past HALT before
// the halt latches, so the words after it must be harmless.
func s16End(t *asmText) string {
	t.op("HALT")
	for i := 0; i < 4; i++ {
		t.op("NOP")
	}
	return t.String()
}

// s16Dot is a dot product of n elements with the inner loop unrolled
// unroll times (each copy loads at its own offset, so distinct words grow
// with unroll).
func s16Dot(n, unroll, reps int) string {
	t := &asmText{}
	s16Begin(t, [4]int{0, n, 1, 3}, [4]int{1024, n, 2, 5})
	t.op("LDI B3, %d", unroll)
	s16Repeat(t, reps, func() {
		t.op("CLRACC")
		t.op("LDI A4, 0")
		t.op("LDI A5, 1024")
		t.op("LDI A8, %d", n/unroll)
		l := t.label("dot")
		for k := 0; k < unroll; k++ {
			t.op("LD A6, A4, %d", k)
			t.op("LD A7, A5, %d", k)
			t.op("NOP")
			t.op("MAC A6, A7")
		}
		t.op("ADD A4, A4, B3")
		t.op("ADD A5, A5, B3")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", l)
		t.op("NOP")
		t.op("NOP")
		t.op("SAT A0")
		t.op("ST A0, A15, 1800")
	})
	return s16End(t)
}

// s16Fir is a taps-tap FIR filter over samples outputs.
func s16Fir(taps, samples, reps int) string {
	t := &asmText{}
	s16Begin(t, [4]int{0, taps, 3, -1}, [4]int{1024, samples + taps, 1, 7})
	s16Repeat(t, reps, func() {
		t.op("LDI A9, 0")
		t.op("LDI A10, %d", samples)
		t.op("LDI A3, 2048")
		outer := t.label("fo")
		t.op("CLRACC")
		t.op("LDI A8, %d", taps)
		t.op("LDI A4, 0")
		t.op("LDI A5, 1024")
		t.op("NOP")
		t.op("ADD A5, A5, A9")
		inner := t.label("fi")
		t.op("LD A6, A4, 0")
		t.op("LD A7, A5, 0")
		t.op("ADD A4, A4, B1")
		t.op("MAC A6, A7")
		t.op("ADD A5, A5, B1")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", inner)
		t.op("NOP")
		t.op("NOP")
		t.op("SAT A6")
		t.op("ST A6, A3, 0")
		t.op("ADD A3, A3, B1")
		t.op("ADD A9, A9, B1")
		t.op("SUB A10, A10, B1")
		t.op("BNZ A10, %s", outer)
		t.op("NOP")
		t.op("NOP")
	})
	return s16End(t)
}

// s16Biquad is a direct-form-I biquad over samples inputs.
func s16Biquad(samples, reps int) string {
	t := &asmText{}
	s16Begin(t, [4]int{1024, samples, 5, 3})
	t.op("LDI B4, 3")
	t.op("LDI B5, 2")
	t.op("LDI B6, 1")
	t.op("LDI B7, -1")
	t.op("LDI B8, -2")
	s16Repeat(t, reps, func() {
		t.op("LDI A8, %d", samples)
		t.op("LDI A4, 1024")
		t.op("LDI A3, 2048")
		t.op("LDI A11, 0")
		t.op("LDI A12, 0")
		t.op("LDI A14, 0")
		t.op("LDI A13, 0")
		l := t.label("bq")
		t.op("LD A6, A4, 0")
		t.op("CLRACC")
		t.op("NOP")
		t.op("MAC A6, B4")
		t.op("MAC A11, B5")
		t.op("MAC A12, B6")
		t.op("MAC A14, B7")
		t.op("MAC A13, B8")
		t.op("SAT A7")
		t.op("ADD A12, A11, B0")
		t.op("ADD A11, A6, B0")
		t.op("ADD A13, A14, B0")
		t.op("ADD A14, A7, B0")
		t.op("ST A7, A3, 0")
		t.op("ADD A3, A3, B1")
		t.op("ADD A4, A4, B1")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", l)
		t.op("NOP")
		t.op("NOP")
	})
	return s16End(t)
}

// s16Memcpy copies n words through a register.
func s16Memcpy(n, reps int) string {
	t := &asmText{}
	s16Begin(t, [4]int{0, n, 9, 4})
	s16Repeat(t, reps, func() {
		t.op("LDI A8, %d", n)
		t.op("LDI A4, 0")
		t.op("LDI A5, 2048")
		l := t.label("cp")
		t.op("LD A6, A4, 0")
		t.op("ADD A4, A4, B1")
		t.op("NOP")
		t.op("ST A6, A5, 0")
		t.op("ADD A5, A5, B1")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", l)
		t.op("NOP")
		t.op("NOP")
	})
	return s16End(t)
}

// s16Sumsq is the sum of squares of n elements.
func s16Sumsq(n, reps int) string {
	t := &asmText{}
	s16Begin(t, [4]int{0, n, -50, 3})
	s16Repeat(t, reps, func() {
		t.op("LDI A8, %d", n)
		t.op("LDI A4, 0")
		t.op("CLRACC")
		l := t.label("sq")
		t.op("LD A6, A4, 0")
		t.op("ADD A4, A4, B1")
		t.op("NOP")
		t.op("MAC A6, A6")
		t.op("SUB A8, A8, B1")
		t.op("BNZ A8, %s", l)
		t.op("NOP")
		t.op("NOP")
		t.op("SAT A0")
		t.op("ST A0, A15, 1900")
	})
	return s16End(t)
}

// s16ALUOps and s16ALURegs are the straight-line block's operations and
// the registers it may touch (everything but A14, A15, B0 and B1).
var (
	s16ALUOps  = []string{"ADD", "SUB", "XOR", "AND", "OR", "MPY"}
	s16ALURegs = func() []string {
		var r []string
		for i := 0; i < 14; i++ {
			r = append(r, fmt.Sprintf("A%d", i))
		}
		for i := 2; i < 14; i++ {
			r = append(r, fmt.Sprintf("B%d", i))
		}
		return r
	}()
)

// s16ALU is an unrolled straight-line ALU block of 16*unroll distinct
// instruction words, looped reps times, with its result stored.
func s16ALU(unroll, reps int) string {
	t := &asmText{}
	s16Begin(t)
	for i, r := range s16ALURegs {
		t.op("LDI %s, %d", r, 3*i+1)
	}
	nr := len(s16ALURegs)
	s16Repeat(t, reps, func() {
		for j := 0; j < 16*unroll; j++ {
			k := j / len(s16ALUOps)
			dst, src1, src2 := s16ALURegs[k%nr], s16ALURegs[(k+k/nr)%nr], s16ALURegs[(3*k+5)%nr]
			t.op("%s %s, %s, %s", s16ALUOps[j%len(s16ALUOps)], dst, src1, src2)
		}
	})
	for i, r := range s16ALURegs {
		t.op("ST %s, B0, %d", r, 1800+i)
	}
	return s16End(t)
}

// --- simd16 -------------------------------------------------------------------
//
// Branches resolve in EX of the three-stage pipe; two NOPs cover the delay
// slots. R15 is the outer repetition counter.

func v16Begin(t *asmText, fills ...[4]int) {
	for _, f := range fills {
		base, n, start, step := f[0], f[1], f[2], f[3]
		t.op("LDI R1, %d", start)
		t.op("LDI R2, %d", base)
		t.op("LDI R3, %d", n/4)
		l := t.label("fill")
		t.op("VBCAST V0, R1")
		t.op("VST V0, R2, 0")
		t.op("ADDI R1, %d", step)
		t.op("ADDI R2, 4")
		t.op("ADDI R3, -1")
		t.op("BNZ R3, %s", l)
		t.op("NOP")
		t.op("NOP")
	}
}

func v16Repeat(t *asmText, reps int, body func()) {
	t.op("LDI R15, %d", reps)
	l := t.label("rep")
	body()
	t.op("ADDI R15, -1")
	t.op("BNZ R15, %s", l)
	t.op("NOP")
	t.op("NOP")
}

func v16End(t *asmText) string {
	t.op("HALT")
	for i := 0; i < 4; i++ {
		t.op("NOP")
	}
	return t.String()
}

// v16Dot is a 4-lane dot product over n elements, reduced to a scalar.
func v16Dot(n, reps int) string {
	t := &asmText{}
	v16Begin(t, [4]int{0, n, 1, 3}, [4]int{1024, n, 2, -1})
	v16Repeat(t, reps, func() {
		t.op("VCLR")
		t.op("LDI R2, 0")
		t.op("LDI R3, 1024")
		t.op("LDI R5, %d", n/4)
		l := t.label("vd")
		t.op("VLD V1, R2, 0")
		t.op("VLD V2, R3, 0")
		t.op("VMAC V1, V2")
		t.op("ADDI R2, 4")
		t.op("ADDI R3, 4")
		t.op("ADDI R5, -1")
		t.op("BNZ R5, %s", l)
		t.op("NOP")
		t.op("NOP")
		t.op("VSAT V3")
		t.op("VRED R6, V3")
		t.op("VBCAST V3, R6")
		t.op("LDI R7, 2048")
		t.op("VST V3, R7, 0")
	})
	return v16End(t)
}

// v16Axpy computes y = a*x + y over n elements in place.
func v16Axpy(n, reps int) string {
	t := &asmText{}
	v16Begin(t, [4]int{0, n, 4, 1}, [4]int{1024, n, -7, 2})
	t.op("LDI R9, 3")
	t.op("VBCAST V4, R9")
	v16Repeat(t, reps, func() {
		t.op("LDI R2, 0")
		t.op("LDI R3, 1024")
		t.op("LDI R5, %d", n/4)
		l := t.label("ax")
		t.op("VLD V1, R2, 0")
		t.op("VLD V2, R3, 0")
		t.op("VMUL V1, V1, V4")
		t.op("VADD V2, V2, V1")
		t.op("VST V2, R3, 0")
		t.op("ADDI R2, 4")
		t.op("ADDI R3, 4")
		t.op("ADDI R5, -1")
		t.op("BNZ R5, %s", l)
		t.op("NOP")
		t.op("NOP")
	})
	return v16End(t)
}

// v16Sum sums n elements lane-wise, then reduces and subtracts a second
// vector stream.
func v16Sum(n, reps int) string {
	t := &asmText{}
	v16Begin(t, [4]int{0, n, 11, 5}, [4]int{1024, n, 3, 3})
	v16Repeat(t, reps, func() {
		t.op("VZERO V5")
		t.op("LDI R2, 0")
		t.op("LDI R3, 1024")
		t.op("LDI R5, %d", n/4)
		l := t.label("vs")
		t.op("VLD V1, R2, 0")
		t.op("VLD V2, R3, 0")
		t.op("VADD V5, V5, V1")
		t.op("VSUB V5, V5, V2")
		t.op("ADDI R2, 4")
		t.op("ADDI R3, 4")
		t.op("ADDI R5, -1")
		t.op("BNZ R5, %s", l)
		t.op("NOP")
		t.op("NOP")
		t.op("VRED R6, V5")
		t.op("VBCAST V6, R6")
		t.op("LDI R7, 2052")
		t.op("VST V6, R7, 0")
	})
	return v16End(t)
}

// --- c62x ---------------------------------------------------------------------
//
// Every instruction sits in its own 8-word fetch packet (parallel partners
// with "||" share it), so labels fall on packet boundaries. Branches take
// five delay-slot packets. Loads write in E5 and read their base there, so
// a multicycle "NOP 4" lets them drain before pointers move; that stall is
// also what gives every c62x kernel non-zero stall cycles. A3 holds 1 and
// A15 the outer repetition counter.

func (t *asmText) packet(insns ...string) {
	for _, in := range insns {
		t.op("%s", in)
	}
	for i := len(insns); i < 8; i++ {
		t.op("|| NOP")
	}
}

func (t *asmText) packetLabel(stem string, insns ...string) string {
	t.lbl++
	name := fmt.Sprintf("%s%d", stem, t.lbl)
	insns = append([]string(nil), insns...)
	insns[0] = name + ": " + insns[0]
	t.packet(insns...)
	return name
}

func (t *asmText) delaySlots() {
	for i := 0; i < 5; i++ {
		t.packet("NOP")
	}
}

func c6Begin(t *asmText, fills ...[4]int) {
	t.packet("MVK .S1 A3, 1")
	for _, f := range fills {
		base, n, start, step := f[0], f[1], f[2], f[3]
		t.packet("MVK .S1 A4, "+fmt.Sprint(base), "|| MVK .S2 A8, "+fmt.Sprint(n))
		t.packet("MVK .S1 A6, "+fmt.Sprint(start), "|| MVK .S2 A7, "+fmt.Sprint(step))
		l := t.packetLabel("fill", "STW .D1 A6, *A4[0]")
		t.packet("NOP 3")
		t.packet("SUB .L1 A8, A8, A3")
		t.packet("ADD .L1 A4, A4, A3", "|| ADD .L2 A6, A6, A7")
		t.packet("BNZ .S1 A8, " + l)
		t.delaySlots()
	}
}

func c6Repeat(t *asmText, reps int, body func()) {
	t.packet("MVK .S1 A15, " + fmt.Sprint(reps))
	l := t.label("rep")
	body()
	t.packet("SUB .L1 A15, A15, A3")
	t.packet("NOP")
	t.packet("BNZ .S1 A15, " + l)
	t.delaySlots()
}

func c6End(t *asmText) string {
	t.packet("IDLE")
	t.packet("NOP")
	return t.String()
}

// c6Dot is the dot product with one instruction per execute packet
// (serial) or with loads, pointer updates and loop control packed into
// parallel execute packets.
func c6Dot(n, reps int, parallel bool) string {
	t := &asmText{}
	c6Begin(t, [4]int{0, n, 1, 2}, [4]int{512, n, 3, -1})
	c6Repeat(t, reps, func() {
		if parallel {
			t.packet("MVK .S1 A4, 0", "|| MVK .S2 A5, 512", "|| MVK .S1 A8, "+fmt.Sprint(n), "|| ZERO .S2 A9")
			l := t.packetLabel("pd", "LDW .D1 *A4[0], A6", "|| LDW .D2 *A5[0], A7", "|| SUB .L1 A8, A8, A3")
			t.packet("NOP 4")
			t.packet("MPY .M1 A10, A6, A7", "|| ADD .L1 A4, A4, A3", "|| ADD .L2 A5, A5, A3")
			t.packet("BNZ .S1 A8, " + l)
			t.packet("ADD .L1 A9, A9, A10")
			for i := 0; i < 4; i++ {
				t.packet("NOP")
			}
		} else {
			t.packet("MVK .S1 A4, 0")
			t.packet("MVK .S1 A5, 512")
			t.packet("MVK .S1 A8, " + fmt.Sprint(n))
			t.packet("ZERO .S1 A9")
			l := t.packetLabel("sd", "LDW .D1 *A4[0], A6")
			t.packet("LDW .D2 *A5[0], A7")
			t.packet("NOP 4")
			t.packet("MPY .M1 A10, A6, A7")
			t.packet("SUB .L1 A8, A8, A3")
			t.packet("ADD .L1 A4, A4, A3")
			t.packet("ADD .L2 A5, A5, A3")
			t.packet("ADD .L1 A9, A9, A10")
			t.packet("BNZ .S1 A8, " + l)
			t.delaySlots()
		}
		t.packet("STW .D1 A9, *A15[1024]")
		t.packet("NOP 3")
	})
	return c6End(t)
}

// c6Vecmax finds the maximum of n elements with CMPGT and a conditional
// branch around the update.
func c6Vecmax(n, reps int) string {
	t := &asmText{}
	c6Begin(t, [4]int{0, n, -40, 7})
	c6Repeat(t, reps, func() {
		t.packet("MVK .S1 A8, "+fmt.Sprint(n), "|| MVK .S2 A4, 0")
		t.packet("MVK .S1 A9, -32768")
		loop := t.packetLabel("vm", "LDW .D1 *A4[0], A6")
		t.packet("NOP 4")
		t.packet("ADD .L1 A4, A4, A3", "|| CMPGT .L2 B2, A6, A9")
		t.packet("NOP")
		skip := fmt.Sprintf("vs%d", t.lbl)
		t.packet("BZ .S1 B2, " + skip)
		t.delaySlots()
		t.packet("ADD .L1 A9, A6, A0")
		t.b.WriteString(skip + ":\n")
		t.packet("SUB .L1 A8, A8, A3")
		t.packet("NOP")
		t.packet("BNZ .S1 A8, " + loop)
		t.delaySlots()
		t.packet("STW .D1 A9, *A15[1024]")
		t.packet("NOP 3")
	})
	return c6End(t)
}

// c6Stall is a chain of multicycle NOPs between ALU packets: every NOP
// exercises the stall and re-dispatch machinery.
func c6Stall(links, reps int) string {
	t := &asmText{}
	c6Begin(t, [4]int{0, 8, 5, 5})
	c6Repeat(t, reps, func() {
		for i := 0; i < links; i++ {
			t.packet(fmt.Sprintf("ADD .L1 A%d, A%d, A3", 4+i%8, 4+(i+1)%8))
			t.packet(fmt.Sprintf("NOP %d", 1+i%3))
		}
	})
	for i := 0; i < 8; i++ {
		t.packet(fmt.Sprintf("STW .D1 A%d, *A0[%d]", 4+i, 1500+i))
	}
	t.packet("NOP 3")
	return c6End(t)
}

// --- pools ----------------------------------------------------------------------

func e(name, model, src string) entry {
	return entry{Name: model + "/" + name, Model: model, Source: src, Weight: 1}
}

// kernelsPool is the kernels/observed pool: long DSP kernels of all three
// models, sized so each model takes about a third of the host time and
// simple16 runs from ~2k to ~64k cycles. 15 entries keep the median and
// p90 ranks away from the boundary between two programs.
func kernelsPool() []entry {
	return []entry{
		e("dot-n64-u1-r2", "simple16", s16Dot(64, 1, 2)),
		e("sumsq-n48-r16", "simple16", s16Sumsq(48, 16)),
		e("alu-u4-r96", "simple16", s16ALU(4, 96)),
		e("fir-t8-s16-r8", "simple16", s16Fir(8, 16, 8)),
		e("dot-n128-u4-r20", "simple16", s16Dot(128, 4, 20)),
		e("biquad-s32-r48", "simple16", s16Biquad(32, 48)),
		e("memcpy-n256-r27", "simple16", s16Memcpy(256, 27)),
		e("vdot-n64-r8", "simd16", v16Dot(64, 8)),
		e("vaxpy-n256-r48", "simd16", v16Axpy(256, 48)),
		e("vsum-n256-r96", "simd16", v16Sum(256, 96)),
		e("dot-serial-n16-r2", "c62x", c6Dot(16, 2, false)),
		e("vecmax-n16-r4", "c62x", c6Vecmax(16, 4)),
		e("stall-l8-r32", "c62x", c6Stall(8, 32)),
		e("dot-parallel-n32-r4", "c62x", c6Dot(32, 4, true)),
		e("dot-serial-n64-r4", "c62x", c6Dot(64, 4, false)),
	}
}

// generatedPool is the generated pool: simple16 programs from ~2k to ~1M
// cycles at unroll 1 and 16, plus c62x entries gosim cannot compile. Short
// programs carry more weight so both sides of the spawn-vs-loop crossover
// are frequent; 2 of the 21 jobs of a round are c62x.
func generatedPool() []entry {
	w := func(en entry, weight int) entry { en.Weight = weight; return en }
	return []entry{
		w(e("dot-n64-u1-r4", "simple16", s16Dot(64, 1, 4)), 3),
		w(e("alu-u16-r8", "simple16", s16ALU(16, 8)), 3),
		w(e("dot-n128-u16-r16", "simple16", s16Dot(128, 16, 16)), 3),
		w(e("fir-t16-s32-r6", "simple16", s16Fir(16, 32, 6)), 3),
		w(e("alu-u1-r640", "simple16", s16ALU(1, 640)), 2),
		w(e("dot-n256-u16-r64", "simple16", s16Dot(256, 16, 64)), 2),
		w(e("memcpy-n512-r210", "simple16", s16Memcpy(512, 210)), 2),
		w(e("alu-u16-r3600", "simple16", s16ALU(16, 3600)), 1),
		w(e("dot-serial-n16-r2", "c62x", c6Dot(16, 2, false)), 1),
		w(e("vecmax-n16-r2", "c62x", c6Vecmax(16, 2)), 1),
	}
}

// retargetPool holds one short smoke program per model; a retarget job
// regenerates that model's whole toolchain before running it.
func retargetPool() []entry {
	return []entry{
		e("smoke-dot-n16", "simple16", s16Dot(16, 1, 1)),
		e("smoke-vdot-n16", "simd16", v16Dot(16, 1)),
		e("smoke-dot-serial-n4", "c62x", c6Dot(4, 1, false)),
	}
}

// allEntries is the union of the pools, each program once: the golden
// reference covers exactly these.
func allEntries() []entry {
	seen := map[string]bool{}
	var out []entry
	for _, pool := range [][]entry{kernelsPool(), generatedPool(), retargetPool()} {
		for _, en := range pool {
			if !seen[en.Name] {
				seen[en.Name] = true
				out = append(out, en)
			}
		}
	}
	return out
}

// sequence is a workload's job order: an endless series of rounds, each
// one seeded permutation of the pool with every entry repeated Weight
// times. Whole rounds keep the program mix identical across seeds; the
// seed only chooses the order.
type sequence struct {
	rng   *rand.Rand
	round []int
	pos   int
}

func newSequence(pool []entry, seed uint64) *sequence {
	q := &sequence{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	for i, en := range pool {
		for k := 0; k < en.Weight; k++ {
			q.round = append(q.round, i)
		}
	}
	q.pos = len(q.round)
	return q
}

// roundDone reports whether the jobs handed out so far form whole rounds.
func (q *sequence) roundDone() bool { return q.pos == len(q.round) }

// next returns the pool index of the next job.
func (q *sequence) next() int {
	if q.pos == len(q.round) {
		q.rng.Shuffle(len(q.round), func(i, j int) { q.round[i], q.round[j] = q.round[j], q.round[i] })
		q.pos = 0
	}
	q.pos++
	return q.round[q.pos-1]
}
