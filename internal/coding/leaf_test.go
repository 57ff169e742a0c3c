package coding_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"golisa/internal/asm"
	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
)

// leafCase is one model whose coding root FuzzDecode decodes words
// against.
type leafCase struct {
	name   string
	root   *model.Operation
	dec    *coding.Decoder
	trial  *coding.Trial
	fields int
}

func newLeafCase(t testing.TB, name, src string) leafCase {
	m := loadModel(t, name, src)
	c := leafCase{name: name, root: codingRoot(m), dec: coding.NewDecoder(m), trial: coding.NewTrial(m)}
	var err error
	if _, c.fields, err = c.dec.Leaves(c.root); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// sameLeaf fails the test unless word decodes the same through the plans
// and the plain first-match trial, and Leaf and Shape give DecodeRoot's
// instance tree with its label values, or DecodeRoot's error text.
func sameLeaf(t *testing.T, c leafCase, word bitvec.Value) {
	t.Helper()
	sameDecode(t, c.name, c.root, c.dec, c.trial, word)
	want, wantErr := c.dec.DecodeRoot(c.root, word)
	fields := make([]uint64, c.fields)
	for i := range fields {
		fields[i] = ^uint64(0) // Leaf must overwrite or zero every one
	}
	leaf, err := c.dec.Leaf(c.root, word, fields)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s %#x: Leaf error %v, DecodeRoot gives %v", c.name, word.Uint(), err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s %#x: Leaf error %q, DecodeRoot gives %q", c.name, word.Uint(), err, wantErr)
		}
		for i, v := range fields {
			if v != 0 {
				t.Fatalf("%s %#x: field %d is %#x after a miss", c.name, word.Uint(), i, v)
			}
		}
		return
	}
	in, shape, err := c.dec.Shape(c.root, leaf)
	if err != nil {
		t.Fatalf("%s %#x: leaf %d: %v", c.name, word.Uint(), leaf, err)
	}
	for i, f := range shape {
		f.Node.Labels[f.Label] = bitvec.New(fields[i], f.Width)
	}
	for i := len(shape); i < len(fields); i++ {
		if fields[i] != 0 {
			t.Fatalf("%s %#x: unused field %d is %#x", c.name, word.Uint(), i, fields[i])
		}
	}
	if diff := treeDiff(in, want); diff != "" {
		t.Fatalf("%s %#x: leaf %d: %s", c.name, word.Uint(), leaf, diff)
	}
}

// treeDiff describes the first difference between two instance trees in
// operation, variant, label values and widths, or bindings, or is empty.
func treeDiff(a, b *model.Instance) string {
	switch {
	case a.Op != b.Op:
		return fmt.Sprintf("operation %s, want %s", a.Op.Name, b.Op.Name)
	case a.Variant != b.Variant:
		return fmt.Sprintf("%s: another variant", a.Op.Name)
	case len(a.Labels) != len(b.Labels) || len(a.Bindings) != len(b.Bindings):
		return fmt.Sprintf("%s, want %s", a, b)
	}
	for name, v := range a.Labels {
		if w, ok := b.Labels[name]; !ok || v != w {
			return fmt.Sprintf("%s: label %s is %v, want %v", a.Op.Name, name, v, w)
		}
	}
	for name, child := range a.Bindings {
		other := b.Bindings[name]
		if other == nil {
			return fmt.Sprintf("%s: binding %s, want none", a.Op.Name, name)
		}
		if diff := treeDiff(child, other); diff != "" {
			return diff
		}
	}
	return ""
}

// FuzzDecode decodes a word against one of five models' coding root: the
// plans and the plain first-match trial agree, and so do Leaf with Shape
// and DecodeRoot. The seeds are the words the stock models' assemblers
// produce for the examples, and every word of nestedISA, whose groups
// fail below their fixed bits, and of repeatISA.
func FuzzDecode(f *testing.F) {
	cases := []leafCase{
		newLeafCase(f, "simple16", models.All["simple16"]),
		newLeafCase(f, "simd16", models.All["simd16"]),
		newLeafCase(f, "c62x", models.All["c62x"]),
		newLeafCase(f, "nested", nestedISA),
		newLeafCase(f, "repeat", repeatISA),
	}
	srcs := exampleSources(f)
	for i, c := range cases[:3] {
		a, err := asm.NewAssembler(loadModel(f, c.name, models.All[c.name]))
		if err != nil {
			f.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, s := range srcs {
			p, err := a.Assemble(s)
			if err != nil {
				continue
			}
			for _, w := range p.Words {
				if !seen[w] {
					seen[w] = true
					f.Add(uint8(i), w)
				}
			}
		}
	}
	for i, c := range cases[3:] {
		for w := uint64(0); w < 1<<c.root.RootResource.Width; w++ {
			f.Add(uint8(3+i), w)
		}
	}
	f.Fuzz(func(t *testing.T, model uint8, word uint64) {
		c := cases[int(model)%len(cases)]
		sameLeaf(t, c, bitvec.New(word, c.root.RootResource.Width))
	})
}

// repeatISA repeats a label and a group reference in one CODING: the
// label keeps its last field's bits in its first field's place, and the
// reference binds its last choice, though both choices must match.
const repeatISA = `
RESOURCE {
  CONTROL_REGISTER bit[8] ir;
}
OPERATION decode {
  DECLARE { GROUP Insn = { pair; wide }; }
  CODING { ir == Insn }
}
OPERATION pair {
  DECLARE { GROUP Arg = { lo; hi }; LABEL a; }
  CODING { 0b0 a:0bx[2] Arg a:0b1x Arg 0bx }
}
OPERATION wide {
  DECLARE { LABEL a; }
  CODING { 0b1 a:0bx[7] }
}
OPERATION lo { CODING { 0b0 } }
OPERATION hi ALIAS { CODING { 0bx } }
`

// TestLeavesRoundTrip encodes every leaf of the stock models' coding
// trees with 64 random sets of field values, keeping each field's fixed
// bits, and decodes each word with Leaf. A leaf of an operation that
// UnreachableSet (lisa-stats) lists never decodes as itself; every other
// leaf decodes as itself, with its field values, in at least one sample.
func TestLeavesRoundTrip(t *testing.T) {
	listed := map[string][]string{}
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		m := loadModel(t, name, models.All[name])
		root := codingRoot(m)
		sec := coding.RootCoding(root)
		if len(sec.Elems) != 1 {
			t.Fatalf("%s: root coding has %d elements, the test encodes one reference", name, len(sec.Elems))
		}
		ref := sec.Elems[0].(*ast.CodingRef).Name
		unreachable := coding.UnreachableSet(m, coding.FindUnreachable(m))
		for op := range unreachable {
			listed[name] = append(listed[name], op)
		}
		dec, enc := coding.NewDecoder(m), coding.NewEncoder(m)
		n, nField, err := dec.Leaves(root)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		got := make([]uint64, nField)
		for leaf := 0; leaf < n; leaf++ {
			in, fields, err := dec.Shape(root, leaf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shadowed := reaches(in, unreachable)
			back := 0
			for s := 0; s < 64; s++ {
				want := make([]uint64, len(fields))
				for i, f := range fields {
					care, fixed := fieldPattern(f)
					want[i] = fixed | rng.Uint64()&bitvec.Mask(f.Width)&^care
					f.Node.Labels[f.Label] = bitvec.New(want[i], f.Width)
				}
				word, err := enc.Encode(in.Bindings[ref])
				if err != nil {
					t.Fatalf("%s leaf %d: %v", name, leaf, err)
				}
				id, err := dec.Leaf(root, word, got)
				if err != nil || id != leaf {
					continue
				}
				if shadowed {
					t.Fatalf("%s: leaf %d (%s) of a shadowed operation decodes as itself", name, leaf, in)
				}
				if fmt.Sprint(got[:len(want)]) != fmt.Sprint(want) {
					t.Fatalf("%s leaf %d: fields %v, encoded %v", name, leaf, got[:len(want)], want)
				}
				back++
			}
			if !shadowed && back == 0 {
				t.Errorf("%s: leaf %d (%s) never decodes as itself", name, leaf, in)
			}
		}
	}
	want := map[string]string{"simple16": "[clrmac jmp]", "simd16": "[vzero]", "c62x": "[jmp_s mvi_s nop1 zero_s]"}
	for name, ops := range want {
		slices.Sort(listed[name])
		if got := fmt.Sprint(listed[name]); got != ops {
			t.Errorf("%s: UnreachableSet lists %s, want %s", name, got, ops)
		}
	}
}

// reaches reports whether the tree below in holds an operation of set.
func reaches(in *model.Instance, set map[string]bool) bool {
	if set[in.Op.Name] {
		return true
	}
	for _, child := range in.Bindings {
		if reaches(child, set) {
			return true
		}
	}
	return false
}

// fieldPattern returns the fixed bits of f's LABEL field, from its last
// field in its node's CODING: the mask of the fixed positions and their
// values.
func fieldPattern(f coding.Field) (care, fixed uint64) {
	sec := coding.OpCoding(f.Node.Op)
	if f.Node.Op.IsCodingRoot {
		sec = coding.RootCoding(f.Node.Op)
	}
	var bits string
	for _, e := range sec.Elems {
		if el, ok := e.(*ast.CodingField); ok && el.Label == f.Label {
			bits = el.Bits
		}
	}
	for i := 0; i < len(bits); i++ {
		care, fixed = care<<1, fixed<<1
		if bits[i] != 'x' {
			care |= 1
		}
		if bits[i] == '1' {
			fixed |= 1
		}
	}
	return care, fixed
}
