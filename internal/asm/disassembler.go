package asm

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// Disassembler renders instruction words back to assembly text using the
// same syntax trees the assembler matches against (the paper's "during
// disassembly, the same pattern is used to generate the respective assembly
// statement").
type Disassembler struct {
	m    *model.Model
	root *model.Operation
	dec  *coding.Decoder
	// refs names the root coding's references in coding order.
	refs []string
}

// NewDisassembler builds a disassembler from the model's first coding root.
func NewDisassembler(m *model.Model) (*Disassembler, error) {
	var root *model.Operation
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			root = op
			break
		}
	}
	if root == nil {
		return nil, fmt.Errorf("model %s has no coding root", m.Name)
	}
	d := &Disassembler{m: m, root: root, dec: coding.NewDecoder(m)}
	if sec := coding.RootCoding(root); sec != nil {
		for _, e := range sec.Elems {
			if ref, ok := e.(*ast.CodingRef); ok {
				d.refs = append(d.refs, ref.Name)
			}
		}
	}
	return d, nil
}

// Disassemble decodes one instruction word and renders it. Because group
// members are tried in declaration order and aliases are declared after the
// real instruction, the disassembler never chooses an alias.
func (d *Disassembler) Disassemble(word uint64) (string, error) {
	width := 32
	if d.root.RootResource != nil {
		width = d.root.RootResource.Width
	}
	in, err := d.dec.DecodeRoot(d.root, bitvec.New(word, width))
	if err != nil {
		return "", err
	}
	// The root instance binds the instruction group(s); render the first
	// bound child, in coding order, that has syntax.
	for _, name := range d.refs {
		if child := in.Bindings[name]; child != nil && child.Variant != nil && child.Variant.Syntax != nil {
			return d.Render(child)
		}
	}
	return "", fmt.Errorf("decoded word %#x has no renderable syntax", word)
}

// Render renders a bound instance to assembly text.
func (d *Disassembler) Render(in *model.Instance) (string, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return "", err
		}
	}
	v := in.Variant
	if v.Syntax == nil {
		return "", fmt.Errorf("operation %s has no syntax", in.Op.Name)
	}
	var sb strings.Builder
	if err := d.render(in, v, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func (d *Disassembler) render(in *model.Instance, v *model.Variant, sb *strings.Builder) error {
	for _, e := range v.Syntax.Elems {
		switch el := e.(type) {
		case *ast.SyntaxString:
			sb.WriteString(el.Text)
		case *ast.SyntaxRef:
			if lv, isLabel := in.Labels[el.Name]; isLabel {
				// Labels concatenate directly to the preceding literal:
				// SYNTAX { "A" index } renders A15 (paper Example 4).
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
			spaceBeforeOperand(sb)
			if err := d.render(child, child.Variant, sb); err != nil {
				return err
			}
		}
	}
	return nil
}

// spaceBeforeOperand inserts a separating space before an operand unless the
// output already ends in whitespace or is empty. Literal strings concatenate
// directly ("ADD" ".D" → ADD.D), matching the paper's example rendering
// "ADD.D A4, A3, A15".
func spaceBeforeOperand(sb *strings.Builder) {
	s := sb.String()
	if s == "" {
		return
	}
	last := s[len(s)-1]
	if last != ' ' && last != '\t' {
		sb.WriteByte(' ')
	}
}

// Listing disassembles a whole program image with addresses.
func (d *Disassembler) Listing(origin uint64, words []uint64) []string {
	out := make([]string, 0, len(words))
	for i, w := range words {
		text, err := d.Disassemble(w)
		if err != nil {
			text = fmt.Sprintf(".word 0x%x", w)
		}
		out = append(out, fmt.Sprintf("%04x: %0*x  %s", origin+uint64(i), (d.wordWidth()+3)/4, w, text))
	}
	return out
}

func (d *Disassembler) wordWidth() int {
	if d.root.RootResource != nil {
		return d.root.RootResource.Width
	}
	return 32
}
