// Package coding implements instruction decoding and encoding from LISA
// CODING sections: matching binary images against the coding tree to build
// bound operation instances (decode), and regenerating instruction words
// from instances (encode). These are the two directions the paper assigns
// to the instruction-set model (§3.2.1).
package coding

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// Decoder matches instruction words against a model's coding trees.
// NewDecoder fills it and nothing writes it afterwards, so one decoder
// serves concurrent simulators.
type Decoder struct {
	m *model.Model
	// plans[op.Index] is op's CODING compiled (plan.go), and roots hold
	// the coding roots' trees. Decoding walks the plans; the walk over the
	// coding sections explains a word that misses and decodes a tree that
	// has no plan, skipping a member whose fixed bits the word fails.
	// Both are nil in the plain first-match trial decoder.
	plans, roots []*plan
}

// NewDecoder creates a decoder over the model, compiling every
// operation's CODING into a plan.
func NewDecoder(m *model.Model) *Decoder {
	d := &Decoder{m: m}
	d.compilePlans()
	return d
}

// DecodeRoot decodes word against the coding root of root (an operation
// whose CODING compares a resource to a group, paper Example 3). It returns
// a fully bound instance tree of root, built from the word's coding leaf;
// the walk explains a word that matches no leaf.
func (d *Decoder) DecodeRoot(root *model.Operation, word bitvec.Value) (*model.Instance, error) {
	if p, err := d.rootPlan(root); err == nil {
		x := word.Uint() & bitvec.Mask(p.width)
		if leaf, _, ok := d.match(p, x, nil, 0); ok {
			in, _ := d.instance(p, x, leaf, nil)
			return in, nil
		}
	}
	return d.walkRoot(root, word)
}

// walkRoot decodes word by walking root's coding sections, first match
// at every group.
func (d *Decoder) walkRoot(root *model.Operation, word bitvec.Value) (*model.Instance, error) {
	if !root.IsCodingRoot {
		return nil, fmt.Errorf("operation %s is not a coding root", root.Name)
	}
	sec := RootCoding(root)
	if sec == nil {
		return nil, fmt.Errorf("coding root %s has no root coding section", root.Name)
	}
	in := model.NewInstance(root)
	w := d.elemsWidth(root, sec.Elems)
	// Wider codings are rejected at sema time; this guard keeps a
	// hand-built model from silently truncating words (Resize clamps to
	// bitvec.MaxWidth) and colliding in word-keyed decode caches.
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

// Decode decodes word against a non-root operation's coding (useful for
// testing sub-trees and for the assembler's consistency checks).
func (d *Decoder) Decode(op *model.Operation, word bitvec.Value) (*model.Instance, error) {
	return d.decodeOp(op, word.Resize(op.CodingWidth))
}

// RootCoding returns the coding section of a coding root, the one that
// compares a resource to the coding tree, or nil.
func RootCoding(op *model.Operation) *ast.CodingSec {
	for _, v := range op.Variants {
		if v.Coding != nil && v.Coding.CompareTo != "" {
			return v.Coding
		}
	}
	return nil
}

// OpCoding returns the operation's (non-root) coding section, or nil.
func OpCoding(op *model.Operation) *ast.CodingSec {
	for _, v := range op.Variants {
		if v.Coding != nil && v.Coding.CompareTo == "" {
			return v.Coding
		}
	}
	return nil
}

// decodeOp matches bits (exactly op.CodingWidth wide) against op's coding.
func (d *Decoder) decodeOp(op *model.Operation, bits bitvec.Value) (*model.Instance, error) {
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
func (d *Decoder) matchElems(op *model.Operation, in *model.Instance, elems []ast.CodingElem, bits bitvec.Value, width int) (int, error) {
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
				gw := groupWidth(g)
				v, err := take(gw)
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

// decodeGroup tries the group's members in declaration order and returns the
// first whose coding matches (the paper's selection rule). A member whose
// fixed bits the word fails cannot match and is not decoded. When no member
// matches, the error wraps the first member's.
func (d *Decoder) decodeGroup(g *model.Group, bits bitvec.Value) (*model.Instance, error) {
	var firstErr error
	for i, mem := range g.Members {
		if d.rejects(mem, bits) {
			continue
		}
		in, err := d.decodeOp(mem, bits)
		if err == nil {
			return in, nil
		}
		if i == 0 {
			firstErr = err
		}
	}
	switch {
	case len(g.Members) == 0:
		firstErr = fmt.Errorf("group has no members")
	case firstErr == nil:
		_, firstErr = d.decodeOp(g.Members[0], bits)
	}
	return nil, fmt.Errorf("no member matches %s: %w", bits.BinString(), firstErr)
}

// rejects reports whether bits fail op's fixed-bit constraint, which rules
// out every match. The constraint is applied only when it spans exactly the
// bits being matched.
func (d *Decoder) rejects(op *model.Operation, bits bitvec.Value) bool {
	if op.Index >= len(d.plans) {
		return false // added to the model after NewDecoder
	}
	p := d.plans[op.Index]
	return p != nil && p.err == nil && p.width == bits.Width() && bits.Uint()&p.mask != p.value
}

func groupWidth(g *model.Group) int {
	for _, mem := range g.Members {
		if mem.CodingWidth > 0 {
			return mem.CodingWidth
		}
	}
	return 0
}

func (d *Decoder) elemsWidth(op *model.Operation, elems []ast.CodingElem) int {
	w := 0
	for _, e := range elems {
		switch el := e.(type) {
		case *ast.CodingPattern:
			w += len(el.Bits)
		case *ast.CodingField:
			w += len(el.Bits)
		case *ast.CodingRef:
			if g, ok := op.Groups[el.Name]; ok {
				w += groupWidth(g)
			} else if ref := d.m.Ops[el.Name]; ref != nil {
				w += ref.CodingWidth
			}
		}
	}
	return w
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

// --- encoding ----------------------------------------------------------------

// Encoder regenerates instruction words from bound instances.
type Encoder struct {
	m *model.Model
}

// NewEncoder creates an encoder over the model.
func NewEncoder(m *model.Model) *Encoder { return &Encoder{m: m} }

// Encode produces the binary image of a bound instance. Don't-care bits of
// plain patterns encode as 0.
func (e *Encoder) Encode(in *model.Instance) (bitvec.Value, error) {
	op := in.Op
	sec := OpCoding(op)
	if sec == nil {
		return bitvec.Value{}, fmt.Errorf("operation %s has no coding", op.Name)
	}
	var bits uint64
	width := 0
	emit := func(v uint64, w int) {
		bits = bits<<uint(w) | (v & bitvec.Mask(w))
		width += w
	}
	for _, el := range sec.Elems {
		switch el := el.(type) {
		case *ast.CodingPattern:
			emit(patternValue(el.Bits), len(el.Bits))
		case *ast.CodingField:
			v, ok := in.Labels[el.Label]
			if !ok {
				return bitvec.Value{}, fmt.Errorf("operation %s: label %s unbound", op.Name, el.Label)
			}
			fixed := patternValue(el.Bits)
			mask := patternCareMask(el.Bits)
			emit((fixed&mask)|(v.Uint()&^mask), len(el.Bits))
		case *ast.CodingRef:
			child := in.Bindings[el.Name]
			if child == nil {
				return bitvec.Value{}, fmt.Errorf("operation %s: reference %s unbound", op.Name, el.Name)
			}
			cv, err := e.Encode(child)
			if err != nil {
				return bitvec.Value{}, err
			}
			emit(cv.Uint(), cv.Width())
		}
	}
	if width > 64 {
		return bitvec.Value{}, fmt.Errorf("operation %s: coding width %d exceeds 64", op.Name, width)
	}
	return bitvec.New(bits, width), nil
}

// patternValue returns the fixed bits of an MSB-first pattern ('x' as 0).
func patternValue(pattern string) uint64 {
	var v uint64
	for i := 0; i < len(pattern); i++ {
		v <<= 1
		if pattern[i] == '1' {
			v |= 1
		}
	}
	return v
}

// patternCareMask returns a mask with 1 in every fixed (non-x) position.
func patternCareMask(pattern string) uint64 {
	var m uint64
	for i := 0; i < len(pattern); i++ {
		m <<= 1
		if pattern[i] != 'x' {
			m |= 1
		}
	}
	return m
}
