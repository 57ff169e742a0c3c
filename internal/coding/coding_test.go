package coding

import (
	"strings"
	"testing"
	"testing/quick"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

func build(t *testing.T, src string) *model.Model {
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

// A register-file operand plus a two-instruction ISA, close to the paper's
// Example 4/6 shape: 1 side bit + 4 index bits per operand.
const miniISA = `
RESOURCE {
  CONTROL_REGISTER bit[32] ir;
  REGISTER int A[16];
  REGISTER int B[16];
}
OPERATION decode {
  DECLARE { GROUP Instruction = { add_d; sub_d }; }
  CODING { ir == Instruction }
}
OPERATION add_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010000 0b1 0b100000 }
  SYNTAX { "ADD" ".D" Src1 "," Src2 "," Dest }
}
OPERATION sub_d {
  DECLARE { GROUP Dest, Src1, Src2 = { register }; }
  CODING { Dest Src2 Src1 0b0000010001 0b1 0b100000 }
  SYNTAX { "SUB" ".D" Src1 "," Src2 "," Dest }
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

// encodeADD builds the 32-bit word for ADD.D with the given register fields:
// Dest(5) Src2(5) Src1(5) 0000010000 1 100000.
func encodeADD(dest, src2, src1 uint64, opc uint64) uint64 {
	w := dest<<27 | src2<<22 | src1<<17 | opc<<7 | 1<<6 | 0x20
	return w
}

func TestDecodeRootSelectsOperation(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	root := m.Ops["decode"]

	// ADD.D A3, B4, A15: Src1=A3(0 0011), Src2=B4(1 0100), Dest=A15(0 1111)
	word := encodeADD(0b01111, 0b10100, 0b00011, 0b0000010000)
	in, err := d.DecodeRoot(root, bitvec.New(word, 32))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	insn := in.Bindings["Instruction"]
	if insn == nil || insn.Op.Name != "add_d" {
		t.Fatalf("selected %v, want add_d", insn)
	}
	dest := insn.Bindings["Dest"]
	if dest.Op.Name != "register" || dest.Labels["index"].Uint() != 15 {
		t.Errorf("dest: %v", dest)
	}
	if dest.Bindings["Side"].Op.Name != "side1" {
		t.Errorf("dest side: %v", dest.Bindings["Side"].Op.Name)
	}
	src2 := insn.Bindings["Src2"]
	if src2.Bindings["Side"].Op.Name != "side2" || src2.Labels["index"].Uint() != 4 {
		t.Errorf("src2: %v", src2)
	}
	// Variant resolution must have picked the side-specific variant.
	if dest.Variant == nil || dest.Variant.Expression == nil {
		t.Fatal("dest variant not resolved")
	}
}

func TestDecodeSelectsSecondMember(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	word := encodeADD(1, 2, 3, 0b0000010001) // SUB opcode
	in, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(word, 32))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := in.Bindings["Instruction"].Op.Name; got != "sub_d" {
		t.Errorf("selected %s, want sub_d", got)
	}
}

func TestDecodeNoMatch(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	// wrong fixed opcode bits
	word := encodeADD(1, 2, 3, 0b1111111111)
	_, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(word, 32))
	if err == nil {
		t.Fatal("expected decode failure")
	}
	if !strings.Contains(err.Error(), "no member matches") {
		t.Errorf("error: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	e := NewEncoder(m)
	root := m.Ops["decode"]

	f := func(dest8, src18, src28 uint8, sub bool) bool {
		dest := uint64(dest8) % 32
		src1 := uint64(src18) % 32
		src2 := uint64(src28) % 32
		opc := uint64(0b0000010000)
		if sub {
			opc = 0b0000010001
		}
		word := encodeADD(dest, src2, src1, opc)
		in, err := d.DecodeRoot(root, bitvec.New(word, 32))
		if err != nil {
			return false
		}
		back, err := e.Encode(in.Bindings["Instruction"])
		if err != nil {
			return false
		}
		return back.Uint() == word && back.Width() == 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeMissingLabel(t *testing.T) {
	m := build(t, miniISA)
	e := NewEncoder(m)
	in := model.NewInstance(m.Ops["register"])
	in.Bindings["Side"] = model.NewInstance(m.Ops["side1"])
	_, err := e.Encode(in)
	if err == nil || !strings.Contains(err.Error(), "label index unbound") {
		t.Errorf("expected unbound-label error, got %v", err)
	}
}

func TestEncodeMissingBinding(t *testing.T) {
	m := build(t, miniISA)
	e := NewEncoder(m)
	in := model.NewInstance(m.Ops["add_d"])
	_, err := e.Encode(in)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("expected unbound-reference error, got %v", err)
	}
}

func TestDontCareBitsDecodeAndEncodeAsZero(t *testing.T) {
	src := `
RESOURCE { CONTROL_REGISTER bit[8] ir; }
OPERATION decode {
  DECLARE { GROUP I = { nop }; }
  CODING { ir == I }
}
OPERATION nop { CODING { 0b1010 0bx[4] } SYNTAX { "NOP" } }
`
	m := build(t, src)
	d := NewDecoder(m)
	e := NewEncoder(m)
	// any low nibble matches
	for _, low := range []uint64{0x0, 0x5, 0xf} {
		in, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(0xa0|low, 8))
		if err != nil {
			t.Fatalf("decode %#x: %v", 0xa0|low, err)
		}
		enc, err := e.Encode(in.Bindings["I"])
		if err != nil {
			t.Fatal(err)
		}
		if enc.Uint() != 0xa0 {
			t.Errorf("don't-care should encode as 0: %#x", enc.Uint())
		}
	}
}

func TestFieldWithFixedBits(t *testing.T) {
	src := `
RESOURCE { CONTROL_REGISTER bit[8] ir; }
OPERATION decode {
  DECLARE { GROUP I = { op }; }
  CODING { ir == I }
}
OPERATION op {
  DECLARE { LABEL f; }
  CODING { 0b01 f:0b1xxxxx }
  SYNTAX { "OP" f:#u }
}
`
	m := build(t, src)
	d := NewDecoder(m)
	// top bit of field must be 1
	if _, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(0b01011111, 8)); err == nil {
		t.Error("fixed field bit violation should fail decode")
	}
	in, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(0b01100101, 8))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	f := in.Bindings["I"].Labels["f"]
	if f.Uint() != 0b100101 {
		t.Errorf("field value = %#b", f.Uint())
	}
}

// TestDecodeNonRootDirect reads a non-root operation's sub-tree of a
// decoded word straight from the plans, through the Node view.
func TestDecodeNonRootDirect(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	n, err := d.Node(m.Ops["decode"], bitvec.New(encodeADD(0b10111, 0, 0, 0b0000010000), 32))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	insn, _ := n.Ref("Instruction")
	reg, ok := insn.Ref("Dest")
	if !ok || reg.Op().Name != "register" {
		t.Fatalf("Dest: %v, %v", reg.Op(), ok)
	}
	side, _ := reg.Ref("Side")
	index, _ := reg.Label("index")
	if side.Op().Name != "side2" || index != bitvec.New(7, 4) || reg.Variant() != m.Ops["register"].Variants[1] {
		t.Errorf("register decode: side %s, index %v", side.Op().Name, index)
	}
	if _, ok := reg.Label("Side"); ok {
		t.Error("a reference reads as a label")
	}
	if _, ok := reg.Ref("index"); ok {
		t.Error("a label reads as a reference")
	}
}

func TestDecodeRootOnNonRootFails(t *testing.T) {
	m := build(t, miniISA)
	d := NewDecoder(m)
	_, err := d.DecodeRoot(m.Ops["add_d"], bitvec.New(0, 32))
	if err == nil || !strings.Contains(err.Error(), "not a coding root") {
		t.Errorf("expected not-a-root error, got %v", err)
	}
}

func TestAliasDecodePrefersFirstMember(t *testing.T) {
	// Two operations with the same coding: declaration order decides.
	src := `
RESOURCE { CONTROL_REGISTER bit[4] ir; }
OPERATION decode {
  DECLARE { GROUP I = { real; aka }; }
  CODING { ir == I }
}
OPERATION real { CODING { 0b0001 } SYNTAX { "REAL" } }
OPERATION aka ALIAS { CODING { 0b0001 } SYNTAX { "AKA" } }
`
	m := build(t, src)
	d := NewDecoder(m)
	in, err := d.DecodeRoot(m.Ops["decode"], bitvec.New(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Bindings["I"].Op.Name; got != "real" {
		t.Errorf("decoded %s, want real (declaration order)", got)
	}
}

func TestPatternHelpers(t *testing.T) {
	if !patternMatches("x1x0", bitvec.New(0b0100, 4)) {
		t.Error("x1x0 should match 0100")
	}
	if patternMatches("x1x0", bitvec.New(0b0001, 4)) {
		t.Error("x1x0 should not match 0001")
	}
	if patternValue("1x01") != 0b1001 {
		t.Errorf("patternValue: %#b", patternValue("1x01"))
	}
	if patternCareMask("1x01") != 0b1011 {
		t.Errorf("careMask: %#b", patternCareMask("1x01"))
	}
}

func TestDecodeRejectsOver64BitCoding(t *testing.T) {
	// Hand-built model: sema rejects >64-bit codings before they reach the
	// decoder, so this guards against models assembled programmatically.
	m := model.NewModel("fat")
	res := &model.Resource{Name: "insn", Width: 64}
	if err := m.AddResource(res); err != nil {
		t.Fatal(err)
	}
	root := &model.Operation{
		Name:         "root",
		IsCodingRoot: true,
		RootResource: res,
		Variants: []*model.Variant{{
			Coding: &ast.CodingSec{
				CompareTo: "insn",
				Elems:     []ast.CodingElem{&ast.CodingPattern{Bits: strings.Repeat("x", 80)}},
			},
		}},
	}
	if err := m.AddOperation(root); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(m)
	_, err := d.DecodeRoot(root, bitvec.New(0, 64))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 64-bit instruction word limit") {
		t.Fatalf("DecodeRoot error = %v, want 64-bit word limit error", err)
	}

	fat := &model.Operation{
		Name:        "fatop",
		CodingWidth: 80,
		Variants: []*model.Variant{{
			Coding: &ast.CodingSec{
				Elems: []ast.CodingElem{&ast.CodingPattern{Bits: strings.Repeat("x", 80)}},
			},
		}},
	}
	if err := m.AddOperation(fat); err != nil {
		t.Fatal(err)
	}
	d = NewDecoder(m)
	_, err = d.Layout(fat)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 64-bit instruction word limit") {
		t.Fatalf("Layout error = %v, want 64-bit word limit error", err)
	}
	if err := d.Check(); err == nil || !strings.Contains(err.Error(), "exceeds the 64-bit instruction word limit") {
		t.Fatalf("Check error = %v, want 64-bit word limit error", err)
	}
}
