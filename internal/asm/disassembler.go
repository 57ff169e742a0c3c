package asm

import (
	"fmt"
	"strconv"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// Disassembler renders instruction words back to assembly text using the
// same syntax trees the assembler matches against (the paper's "during
// disassembly, the same pattern is used to generate the respective assembly
// statement"). It reads each word's coding leaf through the model's
// decoder (coding.Node) and builds no instance tree.
type Disassembler struct {
	root  *model.Operation
	dec   *coding.Decoder
	width int // instruction word width in bits
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
	d := &Disassembler{root: root, dec: coding.For(m), width: 32}
	if root.RootResource != nil {
		d.width = root.RootResource.Width
	}
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
// real instruction, the disassembler never chooses an alias. A word with
// bits above the instruction width is an error.
func (d *Disassembler) Disassemble(word uint64) (string, error) {
	if word&^bitvec.Mask(d.width) != 0 {
		return "", fmt.Errorf("word %#x is wider than the %d-bit instruction", word, d.width)
	}
	n, err := d.dec.Node(d.root, bitvec.New(word, d.width))
	if err != nil {
		return "", err
	}
	// The root binds the instruction group(s); render the first bound
	// member, in coding order, that has syntax.
	for _, name := range d.refs {
		if c, ok := n.Ref(name); ok {
			if v := c.Variant(); v != nil && v.Syntax != nil {
				var buf [64]byte
				b, err := render(buf[:0], c, v)
				if err != nil {
					return "", err
				}
				return string(b), nil
			}
		}
	}
	return "", fmt.Errorf("decoded word %#x has no renderable syntax", word)
}

// render appends the text of node n, whose variant is v, to b.
func render(b []byte, n coding.Node, v *model.Variant) ([]byte, error) {
	for _, e := range v.Syntax.Elems {
		switch el := e.(type) {
		case *ast.SyntaxString:
			b = append(b, el.Text...)
		case *ast.SyntaxRef:
			if lv, isLabel := n.Label(el.Name); isLabel {
				// Labels concatenate directly to the preceding literal:
				// SYNTAX { "A" index } renders A15 (paper Example 4).
				switch el.Format {
				case "#s":
					b = strconv.AppendInt(b, lv.Int(), 10)
				case "#x":
					b = strconv.AppendUint(append(b, "0x"...), lv.Uint(), 16)
				default:
					b = strconv.AppendUint(b, lv.Uint(), 10)
				}
				continue
			}
			c, ok := n.Ref(el.Name)
			if !ok {
				return b, fmt.Errorf("operation %s: syntax reference %s unbound", n.Op().Name, el.Name)
			}
			cv := c.Variant()
			if cv == nil || cv.Syntax == nil {
				return b, fmt.Errorf("operation %s has no syntax", c.Op().Name)
			}
			// An operand is separated from what precedes it unless that
			// ends in whitespace; literal strings concatenate directly
			// ("ADD" ".D" → ADD.D), as in the paper's "ADD.D A4, A3, A15".
			if len(b) > 0 && b[len(b)-1] != ' ' && b[len(b)-1] != '\t' {
				b = append(b, ' ')
			}
			var err error
			if b, err = render(b, c, cv); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// Listing disassembles a whole program image with addresses.
func (d *Disassembler) Listing(origin uint64, words []uint64) []string {
	out := make([]string, 0, len(words))
	for i, w := range words {
		text, err := d.Disassemble(w)
		if err != nil {
			text = fmt.Sprintf(".word 0x%x", w)
		}
		out = append(out, fmt.Sprintf("%04x: %0*x  %s", origin+uint64(i), (d.width+3)/4, w, text))
	}
	return out
}
