package asm

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
)

// leafModels loads the models whose coding leaves the assembler must
// invert: the stock models and hazard16.
func leafModels(t testing.TB) map[string]*model.Model {
	hazard16, err := os.ReadFile("../models/testdata/hazard16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*model.Model{"hazard16": build(t, string(hazard16))}
	for name, src := range models.All {
		out[name] = build(t, src)
	}
	return out
}

// TestLeavesAssemble checks that assembly inverts disassembly on every
// coding leaf of the stock models and hazard16. Each leaf's fields take,
// all at once, 0, 1, their top bit alone and all ones, and then 16
// seeded random values, keeping each field's fixed bits. coding.Encoder
// encodes the leaf's instance tree; the disassembly of the word, as
// written and lower-cased, must assemble to the same word. A leaf below an
// operation FindUnreachable lists decodes as a leaf of its shadower, with
// the same bits. The decoder, the encoder and the renderer are the oracle,
// none of which the assembler shares.
func TestLeavesAssemble(t *testing.T) {
	for name, m := range leafModels(t) {
		a, err := NewAssembler(m)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDisassembler(m)
		if err != nil {
			t.Fatal(err)
		}
		root, dec, enc := d.root, coding.NewDecoder(m), coding.NewEncoder(m)
		sec := coding.RootCoding(root)
		if len(sec.Elems) != 1 {
			t.Fatalf("%s: root coding has %d elements, the test encodes one reference", name, len(sec.Elems))
		}
		ref := sec.Elems[0].(*ast.CodingRef).Name
		shadowers := map[[2]string]string{} // (group, op) → the member that shadows op there
		for _, u := range coding.FindUnreachable(m) {
			shadowers[[2]string{u.Group, u.Op}] = u.ShadowedBy
		}
		leaves, nFields, err := dec.Leaves(root)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(leaves)))
		got := make([]uint64, nFields)
		assembled := 0
		for leaf := 0; leaf < leaves; leaf++ {
			in, fields, err := dec.Shape(root, leaf)
			if err != nil {
				continue // a gap: no word decodes to it
			}
			want := shadowedBy(in, shadowers, nil)
			for s := 0; s < 20; s++ {
				for _, f := range fields {
					var v uint64
					switch s {
					case 0:
					case 1:
						v = 1
					case 2:
						v = 1 << (f.Width - 1)
					case 3:
						v = bitvec.Mask(f.Width)
					default:
						v = rng.Uint64()
					}
					care, fixed := fieldBits(t, dec, f)
					f.Node.Labels[f.Label] = bitvec.New(fixed|v&^care, f.Width)
				}
				w, err := enc.Encode(in.Bindings[ref])
				if err != nil {
					t.Fatalf("%s leaf %d (%s): %v", name, leaf, in, err)
				}
				word := w.Uint()
				text, err := d.Disassemble(word)
				if err != nil {
					t.Fatalf("%s leaf %d (%s): word %#x: %v", name, leaf, in, word, err)
				}
				for _, stmt := range []string{text, strings.ToLower(text)} {
					back, err := a.AssembleStatement(stmt)
					if err != nil || back != word {
						t.Fatalf("%s leaf %d (%s): word %#x disassembles to %q, which assembles to %#x, %v",
							name, leaf, in, word, stmt, back, err)
					}
				}
				assembled++
				if len(want) == 0 {
					continue
				}
				id, err := dec.Leaf(root, bitvec.New(word, root.RootResource.Width), got)
				if err != nil {
					t.Fatal(err)
				}
				decoded, _, err := dec.Shape(root, id)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range want {
					if !holds(decoded, op) {
						t.Fatalf("%s leaf %d (%s): word %#x decodes as %s, not as shadower %s", name, leaf, in, word, decoded, op)
					}
				}
			}
		}
		if assembled == 0 {
			t.Errorf("%s: no leaf assembled", name)
		}
	}
}

// shadowedBy appends to out the shadower of every member bound in the tree
// below in that FindUnreachable lists.
func shadowedBy(in *model.Instance, shadowers map[[2]string]string, out []string) []string {
	for group, child := range in.Bindings {
		if by, ok := shadowers[[2]string{group, child.Op.Name}]; ok {
			out = append(out, by)
		}
		out = shadowedBy(child, shadowers, out)
	}
	return out
}

// holds reports whether the tree below in binds operation op.
func holds(in *model.Instance, op string) bool {
	if in.Op.Name == op {
		return true
	}
	for _, child := range in.Bindings {
		if holds(child, op) {
			return true
		}
	}
	return false
}

// fieldBits returns the fixed bits of f's LABEL field in its node's
// coding layout, over every place of the label: the mask of the fixed
// positions and their values.
func fieldBits(t *testing.T, dec *coding.Decoder, f coding.Field) (care, fixed uint64) {
	lay, err := dec.Layout(f.Node.Op)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lay.Places {
		if !pl.Ref && pl.Name == f.Label {
			care |= lay.Mask >> uint(pl.Shift) & bitvec.Mask(pl.Width)
			fixed |= lay.Value >> uint(pl.Shift) & bitvec.Mask(pl.Width)
		}
	}
	return care, fixed
}
