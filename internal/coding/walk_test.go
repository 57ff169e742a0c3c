package coding

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// Trial is the plain first-match walk over a model's coding sections,
// which decoded every word before the plans: at each group it decodes
// every member in declaration order, in full, until one matches. It is
// the reference FuzzDecode and TestDecodeMatchesTrial hold the plans to,
// error text included.
type Trial struct {
	m *model.Model
}

// NewTrial returns the walk over m's coding sections.
func NewTrial(m *model.Model) *Trial { return &Trial{m: m} }

// DecodeRoot decodes word by walking root's coding sections, first match
// at every group.
func (d *Trial) DecodeRoot(root *model.Operation, word bitvec.Value) (*model.Instance, error) {
	if !root.IsCodingRoot {
		return nil, fmt.Errorf("operation %s is not a coding root", root.Name)
	}
	sec := RootCoding(root)
	if sec == nil {
		return nil, fmt.Errorf("coding root %s has no root coding section", root.Name)
	}
	in := model.NewInstance(root)
	w := (&Decoder{m: d.m}).elemsWidth(root, sec.Elems)
	// Wider codings are rejected at sema time; this guard keeps a
	// hand-built model from silently truncating words (Resize clamps to
	// bitvec.MaxWidth).
	if w > bitvec.MaxWidth {
		return nil, fmt.Errorf("coding root %s: width %d exceeds the %d-bit instruction word limit",
			root.Name, w, bitvec.MaxWidth)
	}
	bits := word.Resize(w)
	rest, err := d.matchElems(root, in, sec.Elems, bits, w)
	if err != nil {
		return nil, err
	}
	if rest != 0 {
		return nil, fmt.Errorf("coding root %s: %d bits left unmatched", root.Name, rest)
	}
	if err := in.ResolveVariant(); err != nil {
		return nil, err
	}
	return in, nil
}

// decodeOp matches bits (exactly op.CodingWidth wide) against op's coding.
func (d *Trial) decodeOp(op *model.Operation, bits bitvec.Value) (*model.Instance, error) {
	sec := OpCoding(op)
	if sec == nil {
		return nil, fmt.Errorf("operation %s has no coding", op.Name)
	}
	if op.CodingWidth > bitvec.MaxWidth {
		return nil, fmt.Errorf("operation %s: coding width %d exceeds the %d-bit instruction word limit",
			op.Name, op.CodingWidth, bitvec.MaxWidth)
	}
	in := model.NewInstance(op)
	rest, err := d.matchElems(op, in, sec.Elems, bits, op.CodingWidth)
	if err != nil {
		return nil, err
	}
	if rest != 0 {
		return nil, fmt.Errorf("operation %s: %d bits left unmatched", op.Name, rest)
	}
	if err := in.ResolveVariant(); err != nil {
		return nil, err
	}
	return in, nil
}

// matchElems consumes elements MSB-first from bits, whose low `width` bits
// hold the region to match. It returns the number of unconsumed bits.
func (d *Trial) matchElems(op *model.Operation, in *model.Instance, elems []ast.CodingElem, bits bitvec.Value, width int) (int, error) {
	cursor := width
	take := func(n int) (bitvec.Value, error) {
		if n > cursor {
			return bitvec.Value{}, fmt.Errorf("operation %s: coding needs %d bits, only %d left", op.Name, n, cursor)
		}
		v := bits.Slice(cursor-1, cursor-n)
		cursor -= n
		return v, nil
	}
	for _, e := range elems {
		switch el := e.(type) {
		case *ast.CodingPattern:
			v, err := take(len(el.Bits))
			if err != nil {
				return cursor, err
			}
			if !patternMatches(el.Bits, v) {
				return cursor, fmt.Errorf("operation %s: pattern %s does not match %s", op.Name, el.Bits, v.BinString())
			}
		case *ast.CodingField:
			v, err := take(len(el.Bits))
			if err != nil {
				return cursor, err
			}
			if !patternMatches(el.Bits, v) {
				return cursor, fmt.Errorf("operation %s: field %s fixed bits do not match", op.Name, el.Label)
			}
			in.Labels[el.Label] = v
		case *ast.CodingRef:
			if g, ok := op.Groups[el.Name]; ok {
				v, err := take(groupWidth(g))
				if err != nil {
					return cursor, err
				}
				child, err := d.decodeGroup(g, v)
				if err != nil {
					return cursor, fmt.Errorf("operation %s, group %s: %w", op.Name, el.Name, err)
				}
				in.Bindings[el.Name] = child
				continue
			}
			ref := d.m.Ops[el.Name]
			if ref == nil {
				return cursor, fmt.Errorf("operation %s: unknown coding reference %s", op.Name, el.Name)
			}
			v, err := take(ref.CodingWidth)
			if err != nil {
				return cursor, err
			}
			child, err := d.decodeOp(ref, v)
			if err != nil {
				return cursor, err
			}
			in.Bindings[el.Name] = child
		}
	}
	return cursor, nil
}

// decodeGroup tries the group's members in declaration order and returns
// the first whose coding matches (the paper's selection rule). When none
// matches, the error wraps the first member's.
func (d *Trial) decodeGroup(g *model.Group, bits bitvec.Value) (*model.Instance, error) {
	var firstErr error
	for i, mem := range g.Members {
		in, err := d.decodeOp(mem, bits)
		if err == nil {
			return in, nil
		}
		if i == 0 {
			firstErr = err
		}
	}
	if len(g.Members) == 0 {
		firstErr = fmt.Errorf("group has no members")
	}
	return nil, fmt.Errorf("no member matches %s: %w", bits.BinString(), firstErr)
}

// patternMatches checks value v against an MSB-first pattern of 0/1/x.
func patternMatches(pattern string, v bitvec.Value) bool {
	n := len(pattern)
	for i := 0; i < n; i++ {
		switch pattern[i] {
		case 'x':
			continue
		case '0':
			if v.Bit(n-1-i) != 0 {
				return false
			}
		case '1':
			if v.Bit(n-1-i) != 1 {
				return false
			}
		}
	}
	return true
}
