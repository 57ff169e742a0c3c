package asm

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"golisa/internal/model"
	"golisa/internal/models"
)

// matchCases pins, per stock model, what AssembleStatement gives for each
// statement under the plain first-match trial over every candidate: the
// encoded word, or the exact error text.
var matchCases = map[string][]struct {
	text string
	word uint64
	err  string
}{
	"simple16": {
		{"NOP", 0x0, ""},
		{"nop", 0x0, ""},
		{"ADD A1, A2, A3", 0x4231000, ""},
		{"add a1,a2,a3", 0x4231000, ""},
		{"ADD B15, A0, B7", 0x7f70000, ""},
		{"SUB A4, A4, B1", 0x8912000, ""},
		{"AND A1, A2, A3", 0xc231000, ""},
		{"OR A1, A2, A3", 0x10231000, ""},
		{"XOR A1, A2, A3", 0x14231000, ""},
		{"MPY A10, A6, A7", 0x19473000, ""},
		{"MAC A6, A7", 0x1c073000, ""},
		{"CLRACC", 0x20000000, ""},
		{"SAT A0", 0x24000000, ""},
		{"LDI A4, 99", 0x28800c60, ""},
		{"LDI A4, -1", 0x289fffe0, ""},
		{"LDI A4, 0x7f", 0x28800fe0, ""},
		{"LDI A4, 99999", 0, "ldi: operand imm value 99999 does not fit in 16 signed bits"},
		{"LDI A4 99999", 0, "no instruction matches \"LDI A4 99999\""},
		{"LD A6, A4, 0", 0x2cc40000, ""},
		{"ST A0, B0, 200", 0x30101900, ""},
		{"B 12", 0x34003000, ""},
		{"B foo", 0, "undefined symbol \"foo\""},
		{"BNZ A8, 5", 0x390000a0, ""},
		{"BNZ A8, loop", 0, "undefined symbol \"loop\""},
		{"HALT", 0xfc000000, ""},
		{"halt", 0xfc000000, ""},
		{"JMP 100", 0x34019000, ""},
		{"CLRMAC", 0x20000000, ""},
		{"ADD A16, A1, A2", 0, "register: operand index value 16 does not fit in 4 bits"},
		{"ADD A1, A2", 0, "no instruction matches \"ADD A1, A2\""},
		{"ADD A1, A2, A3, A4", 0, "no instruction matches \"ADD A1, A2, A3, A4\""},
		{"FOO", 0, "no instruction matches \"FOO\""},
		{"ADDX A1, A2, A3", 0, "no instruction matches \"ADDX A1, A2, A3\""},
		{"LDI A4, 18446744073709551617", 0, "integer constant \"18446744073709551617\" overflows 64 bits"},
		{"LD A6, A4, 99999999999999999999", 0, "integer constant \"99999999999999999999\" overflows 64 bits"},
		{"ADD  A1 ,A2 , A3", 0x4231000, ""},
		{"MAC A6 A7", 0, "no instruction matches \"MAC A6 A7\""},
		{"ld a6, a4, 3", 0x2cc40060, ""},
		{"SAT", 0, "no instruction matches \"SAT\""},
		{"B", 0, "no instruction matches \"B\""},
		{"NOPX", 0, "no instruction matches \"NOPX\""},
		{"NOP NOP", 0, "no instruction matches \"NOP NOP\""},
	},
	"c62x": {
		{"NOP", 0x0, ""},
		{"|| NOP", 0x1, ""},
		{"NOP 2", 0x200000, ""},
		{"|| NOP 3", 0x300001, ""},
		{"IDLE", 0xfe000000, ""},
		{"IRET", 0xfd000000, ""},
		{"ADD .L1 A4, A4, A3", 0x1106400, ""},
		{"|| ADD .L2 A5, A5, A3", 0x1946501, ""},
		{"add .l1 a1,a2,a3", 0x1046200, ""},
		{"SUB .L1 A8, A8, A3", 0x2206800, ""},
		{"MPY .M1 A10, A6, A7", 0x2028e600, ""},
		{"MPYH .M2 B1, B2, B3", 0x21c67200, ""},
		{"LDW .D1 *A4[0], A6", 0x30188000, ""},
		{"LDW .D2 *A5[3], A7", 0x309ca00c, ""},
		{"LDW .D1 *A4[99999999999999999999", 0, "integer constant \"99999999999999999999\" overflows 64 bits"},
		{"STW .D1 A9, *A0[200]", 0x31240320, ""},
		{"MVK .S1 A1, 11", 0x1304002c, ""},
		{"MVK .S1 A1, 99999", 0, "mvk_s: operand imm value 99999 does not fit in 16 signed bits"},
		{"MVKH .S1 A1, 0xffff", 0x1407fffc, ""},
		{"MVK .S1 A3, -5", 0x130fffec, ""},
		{"B .S1 56", 0x150000e0, ""},
		{"BNZ .S1 A8, 48", 0x162000c0, ""},
		{"BZ .S2 B0, 7", 0x17c0001c, ""},
		{"EXT .S1 A1, A2, 3, 4", 0x18046220, ""},
		{"EXTU .S1 A1, A2, 3, 4", 0x19046220, ""},
		{"NORM .L1 A1, A2", 0xe040200, ""},
		{"ABS .L1 A1, A2", 0xb040200, ""},
		{"ZERO .L1 A1", 0, "no instruction matches \"ZERO .L1 A1\""},
		{"MVI .S1 A1, -3", 0x1307fff4, ""},
		{"JMP .S1 100", 0x15000190, ""},
		{"CMPEQ .L1 A1, A2, A3", 0x6046200, ""},
		{"SHRU .S1 A1, A2, A3", 0x12046200, ""},
		{"ADD .X1 A1, A2, A3", 0, "no instruction matches \"ADD .X1 A1, A2, A3\""},
		{"ADD A1, A2, A3", 0, "no instruction matches \"ADD A1, A2, A3\""},
		{"FOO .L1 A1", 0, "no instruction matches \"FOO .L1 A1\""},
		{"MVK .S1 A1", 0, "no instruction matches \"MVK .S1 A1\""},
		{"B .S1 foo", 0, "undefined symbol \"foo\""},
		{"LDW .D1 *A4[0] A6", 0, "no instruction matches \"LDW .D1 *A4[0] A6\""},
		{"|| || NOP", 0, "no instruction matches \"|| || NOP\""},
		{"SMPY .M1 A1, A2, A3", 0x23046200, ""},
	},
	"simd16": {
		{"NOP", 0x0, ""},
		{"VADD V1, V2, V3", 0x4a60000, ""},
		{"vadd v1, v2, v3", 0x4a60000, ""},
		{"VSUB V0, V1, V2", 0x8140000, ""},
		{"VMUL V3, V3, V3", 0xdb60000, ""},
		{"VMAC V1, V2", 0x10140000, ""},
		{"VCLR", 0x14000000, ""},
		{"VSAT V2", 0x19000000, ""},
		{"VLD V1, R2, 3", 0x1c900180, ""},
		{"VST V1, R2, 3", 0x20900180, ""},
		{"VBCAST V1, R2", 0x24900000, ""},
		{"VRED R1, V2", 0x28500000, ""},
		{"LDI R1, -7", 0x2c7ffe40, ""},
		{"ADDI R1, 5", 0x30400140, ""},
		{"B 10", 0x34002800, ""},
		{"BNZ R1, 4", 0x38400100, ""},
		{"HALT", 0xfc000000, ""},
		{"VZERO V3", 0x9b60000, ""},
		{"VADD V1,V2,V3", 0, "no instruction matches \"VADD V1,V2,V3\""},
		{"VADD  V1, V2, V3", 0, "no instruction matches \"VADD  V1, V2, V3\""},
		{"VADD V99, V2, V3", 0, "vadd: operand vd value 99 does not fit in 3 bits"},
		{"LDI R1, 99999", 0, "ldi: operand imm value 99999 does not fit in 16 signed bits"},
		{"BNZ R1, lab", 0, "undefined symbol \"lab\""},
		{"VLD V1, R2", 0, "no instruction matches \"VLD V1, R2\""},
		{"FOO", 0, "no instruction matches \"FOO\""},
	},
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func stockAssembler(t *testing.T, name string) (*Assembler, *model.Model) {
	t.Helper()
	m := build(t, models.All[name])
	a, err := NewAssembler(m)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

// sameMatch fails the test unless AssembleStatement and the unfiltered
// trial over every candidate agree on text: the same word, or the same
// error text.
func sameMatch(t *testing.T, name string, a *Assembler, text string) {
	t.Helper()
	w, err := a.AssembleStatement(text)
	want, wantErr := a.match(text, nil, false)
	if errText(err) != errText(wantErr) {
		t.Errorf("%s %q: error %q, trial gives %q", name, text, errText(err), errText(wantErr))
	} else if err == nil && w != want {
		t.Errorf("%s %q: word %#x, trial gives %#x", name, text, w, want)
	}
}

func TestMatchStatementResults(t *testing.T) {
	for name, cases := range matchCases {
		a, _ := stockAssembler(t, name)
		for _, c := range cases {
			w, err := a.AssembleStatement(c.text)
			if got := errText(err); got != c.err || (err == nil && w != c.word) {
				t.Errorf("%s %q = %#x, %q; want %#x, %q", name, c.text, w, got, c.word, c.err)
			}
			sameMatch(t, name, a, c.text)
		}
	}
}

// TestMatchStatementRoundTrips reassembles the disassembly of random words
// on every stock model, upper- and lower-cased, and checks the literal
// filter against the unfiltered trial on each.
func TestMatchStatementRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, name := range []string{"simple16", "c62x", "simd16"} {
		a, m := stockAssembler(t, name)
		d, err := NewDisassembler(m)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for i := 0; i < 3000; i++ {
			text, err := d.Disassemble(uint64(rng.Uint32()))
			if err != nil {
				continue
			}
			sameMatch(t, name, a, text)
			sameMatch(t, name, a, strings.ToLower(text))
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no random word disassembled", name)
		}
	}
}

func TestLocationCounterBounds(t *testing.T) {
	a, _ := stockAssembler(t, "simple16") // prog_mem holds 0x1000 words
	fir, err := os.ReadFile("../../examples/fir/prog/fir.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{string(fir), ".space 0x1000", "NOP\n.space 0xfff", ".org 0x1000"} {
		if _, err := a.Assemble(src); err != nil {
			t.Errorf("Assemble(%q): %v", src, err)
		}
	}
	for _, c := range []struct{ src, want string }{
		{".space 0x1001", "line 1: location counter passes the end of program memory prog_mem at 0x1000"},
		{"NOP\n.space 0x7fffffffff", "line 2: location counter passes the end of program memory prog_mem at 0x1000"},
		{"NOP\n.space 0xffffffffffffffff", "line 2: location counter passes the end of program memory prog_mem at 0x1000"},
		{".org 0x1001", "line 1: location counter passes the end of program memory prog_mem at 0x1000"},
		{".org 0x1000\nNOP", "line 2: location counter passes the end of program memory prog_mem at 0x1000"},
		{".org 0xfff\n.word 1 2", "line 2: location counter passes the end of program memory prog_mem at 0x1000"},
	} {
		if _, err := a.Assemble(c.src); errText(err) != c.want {
			t.Errorf("Assemble(%q) err = %v, want %q", c.src, err, c.want)
		}
	}

	tiny, _ := newTools(t, tinyASM) // no program memory
	if _, err := tiny.Assemble(fmt.Sprintf(".space %d", maxImageWords+1)); err == nil ||
		!strings.Contains(err.Error(), "line 1: location counter passes the end of the image") {
		t.Errorf("oversized .space on a model without program memory: err = %v", err)
	}
}

func TestBackwardOrgRejected(t *testing.T) {
	a, _ := stockAssembler(t, "simple16")
	src := ".org 0x10\nNOP\nNOP\n.org 0x10\nlab: HALT\nB lab"
	want := "line 4: .org 0x10 is below the location counter 0x12"
	if _, err := a.Assemble(src); errText(err) != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if _, err := a.Assemble(".org 0x10\nNOP\n.org 0x11\n.org 0x11\nHALT"); err != nil {
		t.Errorf(".org at the location counter: %v", err)
	}
}

// prefixISA's coding root has two groups that both carry syntax, so the
// rendered child must be picked by coding order, not by map iteration.
const prefixISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Pre = { par; ser }; GROUP Insn = { nop; halt_op }; }
  CODING { ir == Pre Insn }
}
OPERATION par { CODING { 0b1 } SYNTAX { "||" } }
OPERATION ser { CODING { 0b0 } SYNTAX { "" } }
OPERATION nop { CODING { 0b0000000 } SYNTAX { "NOP" } }
OPERATION halt_op { CODING { 0b1111111 } SYNTAX { "HALT" } }
`

func TestDisassembleFollowsCodingOrder(t *testing.T) {
	_, d := newTools(t, prefixISA)
	for i := 0; i < 100; i++ {
		text, err := d.Disassemble(0x80)
		if err != nil {
			t.Fatal(err)
		}
		if text != "||" {
			t.Fatalf("call %d: Disassemble(0x80) = %q, want %q (Pre precedes Insn)", i, text, "||")
		}
	}
}
