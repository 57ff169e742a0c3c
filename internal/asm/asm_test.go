package asm

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

func build(t testing.TB, src string) *model.Model {
	t.Helper()
	d, perrs := parser.Parse(src, "test.lisa")
	for _, e := range perrs {
		t.Fatalf("parse: %v", e)
	}
	m, errs := sema.Build("test", d)
	for _, e := range errs {
		t.Fatalf("sema: %v", e)
	}
	return m
}

// paperISA encodes the paper's Example 4/6: ADD.D with A/B register sides.
// Word layout (MSB first): Dest(5) Src2(5) Src1(5) opcode(10) 1 unit(6).
const paperISA = `
RESOURCE {
  CONTROL_REGISTER bit[32] ir;
  REGISTER int A[16];
  REGISTER int B[16];
}
OPERATION decode {
  DECLARE { GROUP Instruction = { add_d; sub_d; mv_d }; }
  CODING { ir == Instruction }
}
OPERATION add_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010000 0b1 0b100000 }
  SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
  BEHAVIOR { Dest = Src1 + Src2; }
}
OPERATION sub_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010001 0b1 0b100000 }
  SYNTAX { "SUB" ".D" Src1 "," Src2 "," Dest }
  BEHAVIOR { Dest = Src1 - Src2; }
}
OPERATION mv_d ALIAS {
  DECLARE { GROUP Dest, Src1 = { register }; }
  CODING { Dest 0b00000 Src1 0b0000010000 0b1 0b100000 }
  SYNTAX { "MV" ".D" Src1 "," Dest }
  BEHAVIOR { Dest = Src1; }
}
OPERATION register {
  DECLARE {
    GROUP Side = { side1; side2 };
    LABEL index;
  }
  CODING { Side index:0bx[4] }
  SWITCH (Side) {
    CASE side1: { SYNTAX { "A" index:#u } EXPRESSION { A[index] } }
    CASE side2: { SYNTAX { "B" index:#u } EXPRESSION { B[index] } }
  }
}
OPERATION side1 { CODING { 0b0 } SYNTAX { "" } }
OPERATION side2 { CODING { 0b1 } SYNTAX { "" } }
`

func newTools(t *testing.T, src string) (*Assembler, *Disassembler) {
	t.Helper()
	m := build(t, src)
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDisassembler(m)
	if err != nil {
		t.Fatal(err)
	}
	return a, d
}

// TestPaperExample4Roundtrip is experiment E8: the paper's own statement
// "ADD.D A4, A3, A15" must assemble and disassemble consistently, with the
// operand fields landing in the declared coding positions.
func TestPaperExample4Roundtrip(t *testing.T) {
	a, d := newTools(t, paperISA)
	word, err := a.AssembleStatement("ADD.D A4, A3, A15")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// Dest=A15 (0 1111), Src2=A3 (0 0011), Src1=A4 (0 0100),
	// opcode 0000010000, 1, 100000.
	want := uint64(0b01111)<<27 | uint64(0b00011)<<22 | uint64(0b00100)<<17 |
		uint64(0b0000010000)<<7 | 1<<6 | 0b100000
	if word != want {
		t.Errorf("word = %#010x, want %#010x", word, want)
	}
	text, err := d.Disassemble(word)
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	if text != "ADD.D A4, A3, A15" {
		t.Errorf("rendered %q", text)
	}
}

func TestRegisterSidesSelectVariants(t *testing.T) {
	a, d := newTools(t, paperISA)
	word, err := a.AssembleStatement("SUB.D B7, A2, B0")
	if err != nil {
		t.Fatal(err)
	}
	text, err := d.Disassemble(word)
	if err != nil {
		t.Fatal(err)
	}
	if text != "SUB.D B7, A2, B0" {
		t.Errorf("rendered %q", text)
	}
}

func TestAliasAssemblesButNeverDisassembles(t *testing.T) {
	a, d := newTools(t, paperISA)
	// MV.D A3, A9 is an alias of ADD.D A3, A0, A9.
	mv, err := a.AssembleStatement("MV.D A3, A9")
	if err != nil {
		t.Fatalf("alias assemble: %v", err)
	}
	add, err := a.AssembleStatement("ADD.D A3, A0, A9")
	if err != nil {
		t.Fatal(err)
	}
	if mv != add {
		t.Errorf("alias encodes %#x, real %#x", mv, add)
	}
	text, err := d.Disassemble(mv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "ADD.D") {
		t.Errorf("disassembler chose alias: %q", text)
	}
}

func TestAssembleRejectsBadInput(t *testing.T) {
	a, _ := newTools(t, paperISA)
	cases := []string{
		"NOSUCH A1, A2, A3",
		"ADD.D A1, A2",         // missing operand
		"ADD.D A1, A2, A3, A4", // extra operand
		"ADD.D C1, A2, A3",     // bad register file
		"ADD.D A16, A2, A3",    // index out of range (5th bit is the side)
	}
	for _, c := range cases {
		if _, err := a.AssembleStatement(c); err == nil {
			t.Errorf("assembled %q without error", c)
		}
	}
}

func TestRegisterIndexRangeCheck(t *testing.T) {
	a, _ := newTools(t, paperISA)
	// index field is 4 bits: 0..15 OK.
	if _, err := a.AssembleStatement("ADD.D A15, A0, A1"); err != nil {
		t.Errorf("A15 should assemble: %v", err)
	}
	if _, err := a.AssembleStatement("ADD.D A99, A0, A1"); err == nil {
		t.Error("A99 should be rejected")
	}
}

func TestRoundTripProperty(t *testing.T) {
	a, d := newTools(t, paperISA)
	f := func(d1, s1, s2 uint8, side1, side2, side3, sub bool) bool {
		regName := func(idx uint8, b bool) string {
			side := "A"
			if b {
				side = "B"
			}
			return side + itoa(int(idx%16))
		}
		mn := "ADD"
		if sub {
			mn = "SUB"
		}
		stmt := mn + ".D " + regName(s1, side1) + ", " + regName(s2, side2) + ", " + regName(d1, side3)
		w, err := a.AssembleStatement(stmt)
		if err != nil {
			return false
		}
		text, err := d.Disassemble(w)
		if err != nil {
			return false
		}
		w2, err := a.AssembleStatement(text)
		if err != nil {
			return false
		}
		return w2 == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// tinyASM exercises the full two-pass assembler with labels and directives.
const tinyASM = `
RESOURCE {
  CONTROL_REGISTER bit[16] ir;
  REGISTER int R[8];
}
OPERATION decode {
  DECLARE { GROUP Insn = { nop; addi; br; halt_op }; }
  CODING { ir == Insn }
}
OPERATION nop { CODING { 0b0000 0bx[12] } SYNTAX { "NOP" } }
OPERATION addi {
  DECLARE { LABEL rd, imm; }
  CODING { 0b0001 rd:0bx[3] imm:0bx[9] }
  SYNTAX { "ADDI " rd:#u ", " imm:#s }
}
OPERATION br {
  DECLARE { LABEL target; }
  CODING { 0b0010 target:0bx[12] }
  SYNTAX { "BR " target:#u }
}
OPERATION halt_op { CODING { 0b1111 0bx[12] } SYNTAX { "HALT" } }
`

func TestTwoPassAssemblyWithLabels(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	prog, err := a.Assemble(`
; comment line
start:  ADDI 1, 5      // add
        BR end
loop:   ADDI 2, -1
        BR loop
end:    HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Words) != 5 {
		t.Fatalf("words = %d", len(prog.Words))
	}
	if prog.Symbols["start"] != 0 || prog.Symbols["loop"] != 2 || prog.Symbols["end"] != 4 {
		t.Errorf("symbols: %v", prog.Symbols)
	}
	// BR end → target 4
	if prog.Words[1] != 0x2004 {
		t.Errorf("BR end = %#x, want 0x2004", prog.Words[1])
	}
	// backward ref BR loop → 2
	if prog.Words[3] != 0x2002 {
		t.Errorf("BR loop = %#x", prog.Words[3])
	}
	// signed immediate -1 in 9 bits = 0x1ff
	if prog.Words[2] != 0x1000|2<<9|0x1ff {
		t.Errorf("ADDI 2,-1 = %#x", prog.Words[2])
	}
	if prog.Words[4] != 0xf000 {
		t.Errorf("HALT = %#x", prog.Words[4])
	}
}

func TestDirectives(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	prog, err := a.Assemble(`
  .org 0x10
  ADDI 1, 1
  .word 0xdead 0xbeef
  .space 2
  HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Origin != 0x10 {
		t.Errorf("origin = %#x", prog.Origin)
	}
	want := []uint64{0x1000 | 1<<9 | 1, 0xdead, 0xbeef, 0, 0, 0xf000}
	if len(prog.Words) != len(want) {
		t.Fatalf("words = %v", prog.Words)
	}
	for i, w := range want {
		if prog.Words[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, prog.Words[i], w)
		}
	}
}

// TestWordMustFitWidth: a .word value must fit the 16-bit instruction
// width by the rule operands follow, or the line is an error; a negative
// value that fits is stored masked to the width.
func TestWordMustFitWidth(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	prog, err := a.Assemble(".word 0xffff -1 -0x8000, 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#x", prog.Words); got != "[0xffff 0xffff 0x8000 0x0]" {
		t.Errorf("words = %s", got)
	}
	for src, want := range map[string]string{
		"HALT\n.word 0x10000": "line 2: .word value 0x10000 does not fit in 16 bits",
		".word 1, -0x8001":    "line 1: .word value -0x8001 does not fit in 16 bits",
		".word 0x12345":       "line 1: .word value 0x12345 does not fit in 16 bits",
	} {
		if _, err := a.Assemble(src); err == nil || err.Error() != want {
			t.Errorf("%q: %v, want %s", src, err, want)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	cases := []struct {
		src, want string
	}{
		{"BR nowhere", "undefined symbol"},
		{"x: NOP\nx: NOP", "duplicate label"},
		{".bogus 3", "unknown directive"},
		{"ADDI 9, 1", "does not fit"},
		{"ADDI 1, 300", "does not fit"},
		{"FOO", "no instruction matches"},
	}
	for _, c := range cases {
		_, err := a.Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestSignedImmediateRange(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	// 9-bit signed: -256..255.
	for _, ok := range []string{"ADDI 1, -256", "ADDI 1, 255", "ADDI 1, 0"} {
		if _, err := a.AssembleStatement(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	for _, bad := range []string{"ADDI 1, -257", "ADDI 1, 512"} {
		if _, err := a.AssembleStatement(bad); err == nil {
			t.Errorf("%q should be rejected", bad)
		}
	}
}

func TestListing(t *testing.T) {
	a, d := newTools(t, tinyASM)
	prog, err := a.Assemble("NOP\nADDI 3, 7\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	lines := d.Listing(prog.Origin, prog.Words)
	if len(lines) != 3 {
		t.Fatalf("listing: %v", lines)
	}
	if !strings.Contains(lines[1], "ADDI 3, 7") {
		t.Errorf("listing line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[0], "0000:") {
		t.Errorf("listing address: %q", lines[0])
	}
}

func TestHexFormatParam(t *testing.T) {
	src := strings.Replace(tinyASM, `SYNTAX { "BR " target:#u }`, `SYNTAX { "BR " target:#x }`, 1)
	a, d := newTools(t, src)
	w, err := a.AssembleStatement("BR 0x1f")
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x201f {
		t.Errorf("BR 0x1f = %#x", w)
	}
	text, err := d.Disassemble(w)
	if err != nil {
		t.Fatal(err)
	}
	if text != "BR 0x1f" {
		t.Errorf("rendered %q", text)
	}
}

func TestCaseInsensitiveMnemonics(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	w1, err := a.AssembleStatement("addi 1, 2")
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := a.AssembleStatement("ADDI 1, 2")
	if w1 != w2 {
		t.Error("case-insensitive mnemonic mismatch")
	}
}

func TestNoCodingRootError(t *testing.T) {
	m := build(t, `OPERATION lone { CODING { 0b0 } SYNTAX { "LONE" } }`)
	if _, err := NewAssembler(m); err == nil {
		t.Error("expected error for model without coding root")
	}
	if _, err := NewDisassembler(m); err == nil {
		t.Error("expected error for model without coding root")
	}
}

func TestMnemonicPrefixNotConfused(t *testing.T) {
	// "ADD" must not match the input "ADDI 1, 2" even though it is a prefix.
	src := `
RESOURCE { CONTROL_REGISTER bit[8] ir; }
OPERATION decode { DECLARE { GROUP I = { add; addi }; } CODING { ir == I } }
OPERATION add  { DECLARE { LABEL r; } CODING { 0b0000 r:0bx[4] } SYNTAX { "ADD" r:#u } }
OPERATION addi { DECLARE { LABEL r; } CODING { 0b0001 r:0bx[4] } SYNTAX { "ADDI" r:#u } }
`
	a, _ := newTools(t, src)
	w, err := a.AssembleStatement("ADDI 3")
	if err != nil {
		t.Fatal(err)
	}
	if w != 0b00010011 {
		t.Errorf("ADDI 3 = %#b, matched the wrong mnemonic", w)
	}
}

func TestEquDirectiveAndSymbolArithmetic(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	prog, err := a.Assemble(`
  .equ kBase 0x20
  .equ kStep 3
        ADDI 1, kStep
        BR kBase
        BR kBase+2
        BR table-1
        NOP
table:  HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Words[0] != 0x1000|1<<9|3 {
		t.Errorf("ADDI with .equ operand = %#x", prog.Words[0])
	}
	if prog.Words[1] != 0x2020 {
		t.Errorf("BR kBase = %#x", prog.Words[1])
	}
	if prog.Words[2] != 0x2022 {
		t.Errorf("BR kBase+2 = %#x", prog.Words[2])
	}
	// table is at word 5; table-1 = 4.
	if prog.Words[3] != 0x2004 {
		t.Errorf("BR table-1 = %#x", prog.Words[3])
	}
}

func TestEquErrors(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	if _, err := a.Assemble(".equ x 1\n.equ x 2\nNOP"); err == nil {
		t.Error("duplicate .equ accepted")
	}
	if _, err := a.Assemble(".equ broken\nNOP"); err == nil {
		t.Error("malformed .equ accepted")
	}
	if _, err := a.Assemble("x: NOP\n.equ x 5"); err == nil {
		t.Error(".equ colliding with a label accepted")
	}
}

func TestProgramLinesTrackSources(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	prog, err := a.Assemble("NOP\n\nADDI 1, 2\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Lines) != 3 || prog.Lines[0] != 1 || prog.Lines[1] != 3 || prog.Lines[2] != 4 {
		t.Errorf("line map: %v", prog.Lines)
	}
}

func TestNumberOverflowRejected(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	// Before the overflow check these scanned as their wrapped values
	// (2^64+1 as 1, 2^64+2 as 2, ...) and assembled a wrong encoding.
	cases := []string{
		"ADDI 1, 18446744073709551617",     // decimal 2^64 + 1
		"ADDI 1, 0x10000000000000001",      // hex 2^64 + 1
		"ADDI 18446744073709551616, 1",     // overflow in another operand
		"ADDI 1, -18446744073709551617",    // signed path
		"BR 99999999999999999999999999999", // way past 2^64
	}
	for _, src := range cases {
		_, err := a.AssembleStatement(src)
		if err == nil || !strings.Contains(err.Error(), "overflows 64 bits") {
			t.Errorf("AssembleStatement(%q) err = %v, want overflow error", src, err)
		}
	}
	// Exactly representable 64-bit values still scan; field range/two's
	// complement rules then apply (max uint64 is -1, which fits 9 signed
	// bits).
	if _, err := a.AssembleStatement("ADDI 1, 18446744073709551615"); err != nil {
		t.Errorf("max uint64 should still scan: %v", err)
	}
	if _, err := a.AssembleStatement("ADDI 1, 0xFFFFFFFFFFFFFFFF"); err != nil {
		t.Errorf("max uint64 hex should still scan: %v", err)
	}
}

func TestDirectiveNumberOverflowRejected(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	for _, src := range []string{
		".word 18446744073709551617",
		".org 0x10000000000000000",
	} {
		if _, err := a.Assemble(src); err == nil || !strings.Contains(err.Error(), "overflows 64 bits") {
			t.Errorf("Assemble(%q) err = %v, want overflow error", src, err)
		}
	}
}

func TestSymbolOffsetOverflowRejected(t *testing.T) {
	a, _ := newTools(t, tinyASM)
	_, err := a.Assemble("x: NOP\nBR x+18446744073709551617")
	if err == nil || !strings.Contains(err.Error(), "overflows 64 bits") {
		t.Errorf("symbol offset overflow err = %v, want overflow error", err)
	}
}

// rulesISA exercises the matching rules one operation each: a group
// referenced twice in one syntax, a variant tried after one that failed
// part way, guards that pin a group or reject a variant, a label written
// twice, fixed bits inside a field, a label repeated in one CODING, at
// one width and at two, codings that a match leaves unbound, and an
// operand error before a later match.
const rulesISA = `
RESOURCE { CONTROL_REGISTER bit[16] ir; }
OPERATION decode {
  DECLARE { GROUP Insn = { twice; pin; neg; relabel; fixed; rep; mixed; pinlab; pinref; unbound; nocode; narrow; wide }; }
  CODING { ir == Insn }
}
OPERATION ra { DECLARE { LABEL i; } CODING { 0b0 i:0bx[3] } SYNTAX { "A" i:#u } }
OPERATION rb { DECLARE { LABEL i; } CODING { 0b1 i:0bx[3] } SYNTAX { "B" i:#u } }
OPERATION twice {
  DECLARE { GROUP R = { ra; rb }; }
  CODING { 0b0001 R 0bx[8] }
  SYNTAX { "TWICE" R "," R }
}
OPERATION m0 { CODING { 0b0 } SYNTAX { "M0" } }
OPERATION m1 { CODING { 0b1 } SYNTAX { "M1" } }
OPERATION pin {
  DECLARE { GROUP M = { m0; m1 }; }
  CODING { 0b0010 M 0bx[11] }
  SWITCH (M) {
    CASE m0: { SYNTAX { "PIN" "0" } }
    CASE m1: { SYNTAX { "PIN" "1" } }
  }
}
OPERATION neg {
  DECLARE { GROUP M = { m0; m1 }; }
  CODING { 0b0011 M 0bx[11] }
  IF (M == m1) { SYNTAX { "NEG" "." M } } ELSE { SYNTAX { "NEG" } }
}
OPERATION relabel {
  DECLARE { LABEL v; }
  CODING { 0b0100 v:0bx[12] }
  SYNTAX { "RELABEL" v:#u "," v:#u }
}
OPERATION fixed {
  DECLARE { LABEL f; }
  CODING { 0b0101 f:0b1x0xxxxxxxxx }
  SYNTAX { "FIXED" f:#u }
}
OPERATION rep {
  DECLARE { LABEL r; }
  CODING { 0b0110 r:0bx[4] 0b0000 r:0bx[4] }
  SYNTAX { "REP" r:#u }
}
OPERATION mixed {
  DECLARE { LABEL r; }
  CODING { 0b1101 r:0bx[2] r:0bx[10] }
  SYNTAX { "MIXED" r:#s }
}
OPERATION pl0 { DECLARE { LABEL k; } CODING { k:0bx[1] } SYNTAX { "PL" k:#u } }
OPERATION pinlab {
  DECLARE { GROUP P = { pl0 }; }
  CODING { 0b0111 P 0bx[11] }
  SWITCH (P) { CASE pl0: { SYNTAX { "PINLAB" } } }
}
OPERATION pr0 { DECLARE { GROUP Q = { m0; m1 }; } CODING { Q } SYNTAX { "PR" Q } }
OPERATION pinref {
  DECLARE { GROUP P = { pr0 }; }
  CODING { 0b1000 P 0bx[11] }
  SWITCH (P) { CASE pr0: { SYNTAX { "PINREF" } } }
}
OPERATION unbound {
  DECLARE { LABEL u; }
  CODING { 0b1001 u:0bx[12] }
  SYNTAX { "UNBOUND" }
}
OPERATION nc { SYNTAX { "NC" } }
OPERATION nocode {
  DECLARE { GROUP N = { nc }; }
  CODING { 0b1010 N 0bx[12] }
  SYNTAX { "NOCODE" N }
}
OPERATION narrow {
  DECLARE { LABEL v; }
  CODING { 0b1011 v:0bx[2] 0bx[10] }
  SYNTAX { "WIDTH" v:#u }
}
OPERATION wide {
  DECLARE { LABEL v; }
  CODING { 0b1100 v:0bx[12] }
  SYNTAX { "WIDTH" v:#u }
}
`

// TestMatchRules pins the word or error of statements that exercise each
// matching rule of rulesISA.
func TestMatchRules(t *testing.T) {
	a, _ := newTools(t, rulesISA)
	for _, c := range []struct {
		text string
		word uint64
		err  string
	}{
		{"TWICE A1, A2", 0x1200, ""},
		{"TWICE B1, B7", 0x1f00, ""},
		{"TWICE A1, B2", 0, `no instruction matches "TWICE A1, B2"`},
		{"PIN0", 0x2000, ""},
		{"PIN1", 0x2800, ""},
		{"NEG.M1", 0x3800, ""},
		{"NEG.M0", 0, `no instruction matches "NEG.M0"`},
		{"NEG", 0, `no instruction matches "NEG"`},
		{"RELABEL 1, 2", 0x4002, ""},
		{"RELABEL 9, 4096", 0, "relabel: operand v value 4096 does not fit in 12 bits"},
		{"FIXED 0", 0x5800, ""},
		{"FIXED 1", 0x5801, ""},
		{"FIXED 4095", 0x5dff, ""},
		{"REP 5", 0x6505, ""},
		{"REP 16", 0, "rep: operand r value 16 does not fit in 4 bits"},
		{"MIXED 1", 0xd401, ""},
		{"MIXED -1", 0xdc03, ""},
		{"MIXED 2", 0, "mixed: operand r value 2 does not fit in 2 signed bits"},
		{"PINLAB", 0, "operation pl0: label k unbound"},
		{"PINREF", 0, "operation pr0: reference Q unbound"},
		{"UNBOUND", 0, "operation unbound: label u unbound"},
		{"NOCODE NC", 0, "operation nc has no coding"},
		{"WIDTH 3", 0xbc00, ""},
		{"WIDTH 100", 0xc064, ""},
		{"WIDTH x", 0, `undefined symbol "x"`},
		{"WIDTH 5000", 0, "narrow: operand v value 5000 does not fit in 2 bits"},
	} {
		w, err := a.AssembleStatement(c.text)
		if got := errText(err); got != c.err || (err == nil && w != c.word) {
			t.Errorf("%q = %#x, %q; want %#x, %q", c.text, w, got, c.word, c.err)
		}
	}
}

// TestAssemblerConcurrent assembles one program from several goroutines
// through one Assembler, which nothing writes after NewAssembler: each
// gets the words a lone run gives.
func TestAssemblerConcurrent(t *testing.T) {
	a, _ := stockAssembler(t, "c62x")
	src, err := os.ReadFile("../cli/testdata/golden/c62xloop.s")
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := a.Assemble(string(src))
				if err != nil || !slices.Equal(p.Words, want.Words) {
					t.Errorf("concurrent Assemble: %v, words differ", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
