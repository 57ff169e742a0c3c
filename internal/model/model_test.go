package model

import (
	"strings"
	"testing"
	"testing/quick"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
)

func newTestModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel("t")
	add := func(r *Resource) {
		t.Helper()
		if err := m.AddResource(r); err != nil {
			t.Fatal(err)
		}
	}
	add(&Resource{Name: "pc", Width: 32, Signed: true, Type: ast.TypeSpec{Kind: ast.TypeInt, Width: 32}})
	add(&Resource{Name: "acc", Width: 40, Type: ast.TypeSpec{Kind: ast.TypeBit, Width: 40}})
	add(&Resource{Name: "mem", Width: 32, Size: 16, Type: ast.TypeSpec{Kind: ast.TypeInt, Width: 32}})
	add(&Resource{Name: "rom", Width: 16, Size: 8, Base: 0x100, Type: ast.TypeSpec{Kind: ast.TypeBit, Width: 16}})
	add(&Resource{Name: "bank", Width: 8, Size: 4, Banks: 2, Type: ast.TypeSpec{Kind: ast.TypeBit, Width: 8}})
	m.AssignSlots()
	return m
}

func TestDuplicateRegistrationErrors(t *testing.T) {
	m := newTestModel(t)
	if err := m.AddResource(&Resource{Name: "pc"}); err == nil {
		t.Error("duplicate resource accepted")
	}
	if err := m.AddPipeline(&Pipeline{Name: "p", Stages: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPipeline(&Pipeline{Name: "p", Stages: []string{"A"}}); err == nil {
		t.Error("duplicate pipeline accepted")
	}
	if err := m.AddPipeline(&Pipeline{Name: "pc", Stages: []string{"A"}}); err == nil {
		t.Error("pipeline/resource name collision accepted")
	}
	if err := m.AddPipeline(&Pipeline{Name: "q", Stages: []string{"A", "A"}}); err == nil {
		t.Error("duplicate stage accepted")
	}
	op := &Operation{Name: "op"}
	if err := m.AddOperation(op); err != nil {
		t.Fatal(err)
	}
	if err := m.AddOperation(&Operation{Name: "op"}); err == nil {
		t.Error("duplicate operation accepted")
	}
}

func TestPipelineStageIndex(t *testing.T) {
	m := newTestModel(t)
	p := &Pipeline{Name: "pipe", Stages: []string{"FE", "DC", "EX"}}
	if err := m.AddPipeline(p); err != nil {
		t.Fatal(err)
	}
	if p.StageIndex("DC") != 1 || p.StageIndex("EX") != 2 {
		t.Error("stage index wrong")
	}
	if p.StageIndex("XX") != -1 {
		t.Error("unknown stage should be -1")
	}
	if p.Depth() != 3 {
		t.Error("depth")
	}
}

func TestStateMemoryBounds(t *testing.T) {
	m := newTestModel(t)
	s := NewState(m)
	rom := m.Resource("rom")
	if _, err := s.ReadElem(rom, 0x0ff); err == nil {
		t.Error("below-base read accepted")
	}
	if _, err := s.ReadElem(rom, 0x108); err == nil {
		t.Error("above-range read accepted")
	}
	if err := s.WriteElem(rom, 0x107, bitvec.New(7, 16)); err != nil {
		t.Error(err)
	}
	v, err := s.ReadElem(rom, 0x107)
	if err != nil || v.Uint() != 7 {
		t.Errorf("ranged rw: %v %v", v, err)
	}
	bank := m.Resource("bank")
	if _, err := s.ReadBanked(bank, 2, 0); err == nil {
		t.Error("bank overflow accepted")
	}
	if _, err := s.ReadBanked(m.Resource("mem"), 0, 0); err == nil {
		t.Error("banked access on flat memory accepted")
	}
	if err := s.WriteBanked(bank, 1, 3, bitvec.New(9, 8)); err != nil {
		t.Error(err)
	}
	v, _ = s.ReadBanked(bank, 1, 3)
	if v.Uint() != 9 {
		t.Errorf("banked rw: %v", v)
	}
}

// TestResetClearsWrittenMemory writes a memory of a fresh state through
// each way in, resets the state and compares it with a new one: every
// way in marks the memories for Reset to clear.
func TestResetClearsWrittenMemory(t *testing.T) {
	m := newTestModel(t)
	lat := &Resource{Name: "lmem", Width: 16, Size: 4, Latch: true, Type: ast.TypeSpec{Kind: ast.TypeBit, Width: 16}}
	if err := m.AddResource(lat); err != nil {
		t.Fatal(err)
	}
	m.AssignSlots()
	mem, bank := m.Resource("mem"), m.Resource("bank")
	for _, c := range []struct {
		name  string
		write func(s *State)
	}{
		{"WriteElem", func(s *State) { _ = s.WriteElem(mem, 3, bitvec.New(7, 32)) }},
		{"WriteBanked", func(s *State) { _ = s.WriteBanked(bank, 1, 3, bitvec.New(9, 8)) }},
		{"Commit", func(s *State) { _ = s.WriteElem(lat, 2, bitvec.New(5, 16)); s.Commit() }},
		{"SetMemory", func(s *State) { s.SetMemory(mem, []uint64{1, 2, 3}) }},
	} {
		s := NewState(m)
		c.write(s)
		if eq, _ := s.Equal(NewState(m)); eq {
			t.Fatalf("%s wrote nothing", c.name)
		}
		s.Reset()
		if eq, diff := s.Equal(NewState(m)); !eq {
			t.Errorf("after %s and Reset, %s is not zero", c.name, diff)
		}
	}
}

func TestStateCloneIsDeep(t *testing.T) {
	m := newTestModel(t)
	s := NewState(m)
	s.Write(m.Resource("pc"), bitvec.New(5, 32))
	_ = s.WriteElem(m.Resource("mem"), 3, bitvec.New(7, 32))
	c := s.Clone()
	if eq, _ := s.Equal(c); !eq {
		t.Fatal("clone not equal")
	}
	_ = c.WriteElem(m.Resource("mem"), 3, bitvec.New(8, 32))
	if eq, diff := s.Equal(c); eq || !strings.Contains(diff, "mem") {
		t.Errorf("clone aliased original: eq=%v diff=%s", eq, diff)
	}
	c2 := s.Clone()
	c2.Write(m.Resource("pc"), bitvec.New(6, 32))
	if eq, diff := s.Equal(c2); eq || diff != "pc" {
		t.Errorf("scalar diff not found: %v %s", eq, diff)
	}
}

func TestLatchCommitOrder(t *testing.T) {
	m := NewModel("latch")
	r := &Resource{Name: "l", Width: 32, Latch: true, Type: ast.TypeSpec{Kind: ast.TypeInt, Width: 32}}
	if err := m.AddResource(r); err != nil {
		t.Fatal(err)
	}
	m.AssignSlots()
	s := NewState(m)
	s.Write(r, bitvec.New(1, 32))
	s.Write(r, bitvec.New(2, 32))
	if got := s.Read(r).Uint(); got != 0 {
		t.Errorf("latched write visible before commit: %d", got)
	}
	s.Commit()
	if got := s.Read(r).Uint(); got != 2 {
		t.Errorf("last write should win: %d", got)
	}
	s.Write(r, bitvec.New(3, 32))
	s.Reset()
	s.Commit()
	if got := s.Read(r).Uint(); got != 0 {
		t.Errorf("reset should drop pending writes: %d", got)
	}
	// WriteNow bypasses the latch.
	s.WriteNow(r, bitvec.New(9, 32))
	if got := s.Read(r).Uint(); got != 9 {
		t.Errorf("WriteNow deferred: %d", got)
	}
}

func TestVariantGuardMatching(t *testing.T) {
	a := &Operation{Name: "a"}
	b := &Operation{Name: "b"}
	op := &Operation{Name: "op"}
	op.Variants = []*Variant{
		{Guards: []Guard{{Group: "g", Member: a}}},
		{Guards: []Guard{{Group: "g", Member: a, Negate: true}}},
		{},
	}
	if v := op.SelectVariant(map[string]*Operation{"g": a}); v != op.Variants[0] {
		t.Error("positive guard failed")
	}
	if v := op.SelectVariant(map[string]*Operation{"g": b}); v != op.Variants[1] {
		t.Error("negated guard failed")
	}
	if v := op.SelectVariant(map[string]*Operation{}); v != op.Variants[2] {
		t.Error("unguarded fallback failed")
	}
}

func TestGroupMemberIndex(t *testing.T) {
	a, b := &Operation{Name: "a"}, &Operation{Name: "b"}
	g := &Group{Name: "g", Members: []*Operation{a, b}}
	if g.MemberIndex(a) != 0 || g.MemberIndex(b) != 1 {
		t.Error("member index")
	}
	if g.MemberIndex(&Operation{Name: "c"}) != -1 {
		t.Error("non-member should be -1")
	}
}

func TestInstanceString(t *testing.T) {
	op := &Operation{Name: "add"}
	reg := &Operation{Name: "register"}
	in := NewInstance(op)
	child := NewInstance(reg)
	child.Labels["index"] = bitvec.New(4, 4)
	in.Bindings["Dest"] = child
	s := in.String()
	if !strings.Contains(s, "add(") || !strings.Contains(s, "Dest=register(index=4)") {
		t.Errorf("instance string: %q", s)
	}
	bare := NewInstance(op)
	if bare.String() != "add" {
		t.Errorf("bare instance: %q", bare.String())
	}
}

func TestInstanceResolveVariantError(t *testing.T) {
	a := &Operation{Name: "a"}
	op := &Operation{Name: "op"}
	op.Variants = []*Variant{{Guards: []Guard{{Group: "g", Member: a}}}}
	in := NewInstance(op)
	if err := in.ResolveVariant(); err == nil {
		t.Error("unresolvable variant accepted")
	}
}

func TestStatePropertyScalarRoundTrip(t *testing.T) {
	m := newTestModel(t)
	s := NewState(m)
	acc := m.Resource("acc")
	f := func(v uint64) bool {
		s.Write(acc, bitvec.New(v, 64))
		return s.Read(acc).Uint() == v&bitvec.Mask(40)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatePropertyMemRoundTrip(t *testing.T) {
	m := newTestModel(t)
	s := NewState(m)
	mem := m.Resource("mem")
	f := func(addr uint8, v uint64) bool {
		a := uint64(addr) % 16
		if err := s.WriteElem(mem, a, bitvec.New(v, 64)); err != nil {
			return false
		}
		got, err := s.ReadElem(mem, a)
		return err == nil && got.Uint() == v&bitvec.Mask(32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceTotalAndSlotAssignment(t *testing.T) {
	m := newTestModel(t)
	if m.Resource("bank").Total() != 8 {
		t.Error("banked total")
	}
	if m.Resource("mem").Total() != 16 {
		t.Error("flat total")
	}
	// slots: scalars pc, acc → 0,1; arrays mem, rom, bank → 0,1,2
	if m.Resource("pc").Slot != 0 || m.Resource("acc").Slot != 1 {
		t.Error("scalar slots")
	}
	if m.Resource("mem").Slot != 0 || m.Resource("rom").Slot != 1 || m.Resource("bank").Slot != 2 {
		t.Error("array slots")
	}
}
