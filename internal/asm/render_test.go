package asm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
)

// treeDisassembler is the disassembler as it was before it rendered from
// coding leaves: it decodes a word to its DecodeRoot instance tree and
// renders the tree through the tree's maps. FuzzDisassemble holds
// Disassemble to it, FuzzAssembleRoundTrip encodes its trees, and the
// statements corpus renders its trees with a sentinel label value.
type treeDisassembler struct {
	root  *model.Operation
	dec   *coding.Decoder
	width int
	refs  []string // the root coding's references in coding order
}

func newTreeDisassembler(t testing.TB, m *model.Model) *treeDisassembler {
	t.Helper()
	r := &treeDisassembler{dec: coding.NewDecoder(m)}
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			r.root = op
			break
		}
	}
	if r.root == nil || r.root.RootResource == nil {
		t.Fatalf("model %s has no coding root with a resource", m.Name)
	}
	r.width = r.root.RootResource.Width
	for _, e := range coding.RootCoding(r.root).Elems {
		if ref, ok := e.(*ast.CodingRef); ok {
			r.refs = append(r.refs, ref.Name)
		}
	}
	return r
}

// insn decodes word and returns the instruction of its tree: the first
// member the root binds, in coding order, that has syntax.
func (r *treeDisassembler) insn(word uint64) (*model.Instance, error) {
	in, err := r.dec.DecodeRoot(r.root, bitvec.New(word, r.width))
	if err != nil {
		return nil, err
	}
	for _, name := range r.refs {
		if child := in.Bindings[name]; child != nil && child.Variant != nil && child.Variant.Syntax != nil {
			return child, nil
		}
	}
	return nil, fmt.Errorf("decoded word %#x has no renderable syntax", word)
}

// disassemble renders word's instruction tree.
func (r *treeDisassembler) disassemble(word uint64) (string, error) {
	in, err := r.insn(word)
	if err != nil {
		return "", err
	}
	return renderTree(in)
}

// renderTree renders a bound instance to assembly text.
func renderTree(in *model.Instance) (string, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return "", err
		}
	}
	if in.Variant.Syntax == nil {
		return "", fmt.Errorf("operation %s has no syntax", in.Op.Name)
	}
	var sb strings.Builder
	if err := renderNode(in, in.Variant, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func renderNode(in *model.Instance, v *model.Variant, sb *strings.Builder) error {
	for _, e := range v.Syntax.Elems {
		switch el := e.(type) {
		case *ast.SyntaxString:
			sb.WriteString(el.Text)
		case *ast.SyntaxRef:
			if lv, isLabel := in.Labels[el.Name]; isLabel {
				switch el.Format {
				case "#s":
					fmt.Fprintf(sb, "%d", lv.Int())
				case "#x":
					fmt.Fprintf(sb, "0x%x", lv.Uint())
				default:
					fmt.Fprintf(sb, "%d", lv.Uint())
				}
				continue
			}
			child := in.Bindings[el.Name]
			if child == nil {
				return fmt.Errorf("operation %s: syntax reference %s unbound", in.Op.Name, el.Name)
			}
			if child.Variant == nil {
				if err := child.ResolveVariant(); err != nil {
					return err
				}
			}
			if child.Variant.Syntax == nil {
				return fmt.Errorf("operation %s has no syntax", child.Op.Name)
			}
			if s := sb.String(); s != "" && s[len(s)-1] != ' ' && s[len(s)-1] != '\t' {
				sb.WriteByte(' ')
			}
			if err := renderNode(child, child.Variant, sb); err != nil {
				return err
			}
		}
	}
	return nil
}

// FuzzDisassemble disassembles a word, masked to the instruction width,
// on a stock model or hazard16: Disassemble gives the text, or the error
// text, that DecodeRoot's instance tree rendered through its maps gives.
// The seeds are the words the models assemble fuzzPrograms to, and two
// words that miss on every model.
func FuzzDisassemble(f *testing.F) {
	type tools struct {
		d    *Disassembler
		tree *treeDisassembler
	}
	var cases []tools
	ms := leafModels(f)
	for _, name := range goldenModels {
		d, err := NewDisassembler(ms[name])
		if err != nil {
			f.Fatal(err)
		}
		cases = append(cases, tools{d, newTreeDisassembler(f, ms[name])})
	}
	for i, name := range goldenModels {
		a, err := NewAssembler(ms[name])
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range fuzzPrograms {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			if p, err := a.Assemble(string(src)); err == nil {
				for _, w := range p.Words {
					f.Add(uint8(i), w)
				}
			}
		}
		f.Add(uint8(i), uint64(0x7c000000))
		f.Add(uint8(i), ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, model uint8, word uint64) {
		c := cases[int(model)%len(cases)]
		word &= bitvec.Mask(c.tree.width)
		got, err := c.d.Disassemble(word)
		want, wantErr := c.tree.disassemble(word)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%#x: %q, %v; the tree gives %q, %v", word, got, err, want, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("%#x: error %q, the tree gives %q", word, err, wantErr)
			}
		case got != want:
			t.Fatalf("%#x: %q, the tree gives %q", word, got, want)
		}
	})
}

// TestDisassembleRejectsWideWords: a word with bits above the instruction
// width is an error, not the disassembly of its low bits.
func TestDisassembleRejectsWideWords(t *testing.T) {
	d, err := NewDisassembler(build(t, models.All["simple16"]))
	if err != nil {
		t.Fatal(err)
	}
	if text, err := d.Disassemble(0x2a200020); err != nil || text != "LDI B1, 1" {
		t.Fatalf("0x2a200020: %q, %v", text, err)
	}
	for _, w := range []uint64{0x12a200020, 1 << 63} {
		text, err := d.Disassemble(w)
		if want := fmt.Sprintf("word %#x is wider than the 32-bit instruction", w); err == nil || err.Error() != want {
			t.Errorf("%#x: %q, %v; want error %q", w, text, err, want)
		}
	}
}
