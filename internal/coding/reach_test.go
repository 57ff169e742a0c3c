package coding

import "testing"

// An ISA whose group hides two members: dup has exactly a1's coding, and
// narrow refines a1's fixed bits (every word matching narrow matched a1
// first). free has a disjoint opcode and stays reachable.
const shadowISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Instruction = { a1; dup; narrow; free }; }
  CODING { ir == Instruction }
}
OPERATION a1     { CODING { 0b00 0bx[6] }     SYNTAX { "A1" } }
OPERATION dup    { CODING { 0b00 0bx[6] }     SYNTAX { "DUP" } }
OPERATION narrow { CODING { 0b001000 0bx[2] } SYNTAX { "NARROW" } }
OPERATION free   { CODING { 0b01 0bx[6] }     SYNTAX { "FREE" } }
`

func TestFindUnreachableShadowing(t *testing.T) {
	m := build(t, shadowISA)
	got := FindUnreachable(m)
	if len(got) != 2 {
		t.Fatalf("FindUnreachable = %+v, want dup and narrow", got)
	}
	want := map[string]string{"dup": "a1", "narrow": "a1"}
	for _, u := range got {
		if u.Group != "Instruction" {
			t.Errorf("%s: group %q, want Instruction", u.Op, u.Group)
		}
		if by, ok := want[u.Op]; !ok || u.ShadowedBy != by {
			t.Errorf("unexpected entry %+v", u)
		}
		delete(want, u.Op)
		if u.Pos == "" {
			t.Errorf("%s: empty source position", u.Op)
		}
	}
	set := UnreachableSet(m, FindUnreachable(m))
	for _, name := range []string{"dup", "narrow"} {
		if !set[name] {
			t.Errorf("UnreachableSet misses %s", name)
		}
	}
	for _, name := range []string{"a1", "free", "decode"} {
		if set[name] {
			t.Errorf("UnreachableSet wrongly contains %s", name)
		}
	}
}

// A group member containing a group reference is impure: its match set
// depends on the nested decode, so it must never count as a shadower.
const impureISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Instruction = { wide; later }; }
  CODING { ir == Instruction }
}
OPERATION wide {
  DECLARE { GROUP Mode = { m0; m1 }; }
  CODING { Mode 0bx[6] }
  SYNTAX { "WIDE" }
}
OPERATION later { CODING { 0b01 0bx[6] } SYNTAX { "LATER" } }
OPERATION m0 { CODING { 0b00 } SYNTAX { "" } }
OPERATION m1 { CODING { 0b01 } SYNTAX { "" } }
`

func TestFindUnreachableImpureShadower(t *testing.T) {
	m := build(t, impureISA)
	if got := FindUnreachable(m); len(got) != 0 {
		t.Fatalf("impure member reported as shadower: %+v", got)
	}
}

// A shadower whose references accept every value of their bits matches
// every word its fixed bits allow, as a pure coding does: any matches each
// 2-bit Mode value (m0 and m1 take the first bit, m2 the rest), so it
// hides alias, whose fixed bits refine its own. partial's Part reference
// leaves 0b11 to no member, so it shadows nothing.
const totalISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Instruction = { partial; any; alias; after }; }
  CODING { ir == Instruction }
}
OPERATION partial {
  DECLARE { GROUP Part = { m0; m1 }; }
  CODING { 0b11 Part 0bx[4] }
  SYNTAX { "PARTIAL" }
}
OPERATION any {
  DECLARE { GROUP Mode = { m0; m1; m2 }; LABEL r; }
  CODING { 0b00 Mode r:0bx[4] }
  SYNTAX { "ANY" r:#u }
}
OPERATION alias ALIAS { CODING { 0b0010 0bx[4] } SYNTAX { "ALIAS" } }
OPERATION after { CODING { 0b11 0b11 0bx[4] } SYNTAX { "AFTER" } }
OPERATION m0 { CODING { 0b00 } SYNTAX { "" } }
OPERATION m1 { CODING { 0b01 } SYNTAX { "" } }
OPERATION m2 { CODING { 0b1x } SYNTAX { "" } }
`

func TestFindUnreachableTotalShadower(t *testing.T) {
	m := build(t, totalISA)
	got := FindUnreachable(m)
	if len(got) != 1 || got[0].Op != "alias" || got[0].ShadowedBy != "any" {
		t.Fatalf("FindUnreachable = %+v, want alias shadowed by any", got)
	}
	if set := UnreachableSet(m, FindUnreachable(m)); !set["alias"] || set["after"] {
		t.Fatalf("UnreachableSet = %v, want alias alone", set)
	}
}

func TestFindUnreachableMiniISAClean(t *testing.T) {
	m := build(t, miniISA)
	if got := FindUnreachable(m); len(got) != 0 {
		t.Fatalf("miniISA has no dead leaves, got %+v", got)
	}
	if set := UnreachableSet(m, FindUnreachable(m)); len(set) != 0 {
		t.Fatalf("UnreachableSet = %v, want empty", set)
	}
}

// An operand shadowed inside its group but also referenced directly by
// another instruction's coding stays reachable through that direct path.
const directRefISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Instruction = { insn1; insn2 }; }
  CODING { ir == Instruction }
}
OPERATION insn1 {
  DECLARE { GROUP Opnd = { opnd_a; opnd_b }; }
  CODING { 0b0000 Opnd }
  SYNTAX { "I1" }
}
OPERATION insn2 {
  CODING { 0b0001 opnd_b }
  SYNTAX { "I2" }
}
OPERATION opnd_a { CODING { 0b00 0bx[2] } SYNTAX { "" } }
OPERATION opnd_b { CODING { 0b00 0bx[2] } SYNTAX { "" } }
`

func TestUnreachableSetDirectReference(t *testing.T) {
	m := build(t, directRefISA)
	got := FindUnreachable(m)
	if len(got) != 1 || got[0].Op != "opnd_b" || got[0].ShadowedBy != "opnd_a" {
		t.Fatalf("FindUnreachable = %+v, want opnd_b shadowed by opnd_a", got)
	}
	// The group appearance is dead, but insn2's direct reference keeps the
	// leaf alive, so the set (which feeds coverage denominators) omits it.
	if set := UnreachableSet(m, FindUnreachable(m)); set["opnd_b"] {
		t.Fatal("opnd_b has a direct coding reference; it must stay in the denominators")
	}
}
