// Package coding implements instruction decoding and encoding from LISA
// CODING sections, the two directions the paper assigns to the
// instruction-set model (§3.2.1). NewDecoder compiles every operation's
// CODING once into a plan (plan.go), and one decoder per model (For)
// serves every tool: a word walks the plans to its coding leaf, which
// the disassembler reads through a view (Node) and DecodeRoot turns into
// a bound instance tree for the simulators. Encoder regenerates
// instruction words from instances.
package coding

import (
	"fmt"
	"sync/atomic"

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
	// the coding roots' trees.
	plans, roots []*plan
}

// built counts the decoders NewDecoder has built.
var built atomic.Int64

// NewDecoder creates a decoder over the model, compiling every
// operation's CODING into a plan. Tools share the model's decoder
// through For; a caller that changes the model after For built it
// builds its own here.
func NewDecoder(m *model.Model) *Decoder {
	built.Add(1)
	d := &Decoder{m: m}
	d.compilePlans()
	return d
}

type decoderKey struct{}

// For returns m's decoder, built on first use and kept with the model
// (model.Model.Memo), so the assembler, the disassembler and the
// simulators of one model share one. It is only read once built, so
// tools on many goroutines may share it.
func For(m *model.Model) *Decoder {
	return m.Memo(decoderKey{}, func() any { return NewDecoder(m) }).(*Decoder)
}

// DecodeRoot decodes word against the coding root of root (an operation
// whose CODING compares a resource to a group, paper Example 3). It returns
// a fully bound instance tree of root, built from the word's coding leaf,
// or says why the word matches no leaf.
func (d *Decoder) DecodeRoot(root *model.Operation, word bitvec.Value) (*model.Instance, error) {
	n, err := d.Node(root, word)
	if err != nil {
		return nil, err
	}
	in, _ := d.instance(n.p, n.x, n.leaf, nil)
	return in, nil
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
