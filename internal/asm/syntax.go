// Package asm implements the retargetable assembler and disassembler that
// LISA generates from the SYNTAX and CODING sections of a model: assembly
// statements are matched against syntax plans, which fill in the coding
// layout of each matched operation to give the instruction word, and a
// word's coding leaf is rendered back to assembly text, node by node over
// each variant's SYNTAX. Both read the model's one decoder (coding.For).
// The coding↔syntax label links form the translation rules the paper
// describes (§3.2.1–§3.2.2).
package asm

import (
	"errors"
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// opPlan is one operation compiled for assembly: its syntax variants, and
// the layout of its CODING that a match fills in. A match binds the
// operation's labels and references in slots, one per name.
type opPlan struct {
	op       *model.Operation
	variants []variant // the variants that have a SYNTAX, in order
	bytes    uint64    // the bytes the literals of every variant need
	places   []place   // the layout's places, in coding order
	value    uint64    // the layout's fixed bits
	noLayout error     // why op does not encode: it has no CODING, or no plan
	slots    int       // the slots a match of op holds
	pinnable bool      // some variant has no guard, so a guard can bind op alone
}

// place is a LABEL field or reference of a layout, with the slot that
// binds it.
type place struct {
	name         string
	ref          bool
	slot         int
	shift, width int
	care         uint64 // a field's fixed bits, which override its value
}

// variant is one syntax variant: the elements to match in order, then the
// guards.
type variant struct {
	steps  []step
	guards []guard
	lits   []string // the literals of ASCII bytes only, which mayMatch checks
	bytes  uint64   // byteSet of the literals
}

type stepKind uint8

const (
	stepLiteral stepKind = iota
	stepLabel
	stepRef
	stepUnknown // a name the operation does not declare
)

// step is one syntax element.
type step struct {
	kind stepKind
	// text is a literal, trimmed and with its ASCII letters upper-cased,
	// or a label's or unknown symbol's name.
	text    string
	slot    int
	width   int // a label's field width, which its value must fit; 64 without a field
	signed  bool
	members []*opPlan // a reference's group members, or its one operation
}

// guard is a variant's guard on the group bound in slot.
type guard struct {
	slot   int
	member *opPlan
	negate bool
}

// slot holds one label or reference of a match.
type slot struct {
	word   uint64  // a label's value, or the bound member's word
	member *opPlan // the bound member of a reference
	err    error   // why the bound member does not encode
	bound  bool
}

// builder compiles a model's operations into plans. The plans' variants,
// steps and other lists are views of a few arrays the builder appends to,
// so that an assembler costs few allocations: retargeting builds one for
// every edit of a model.
type builder struct {
	m        *model.Model
	dec      *coding.Decoder
	plans    []opPlan // by model.Operation.Index
	variants []variant
	steps    []step
	guards   []guard
	places   []place
	members  []*opPlan
	lits     []string
	keys     []slotKey // the slots of the operation being compiled
}

// slotKey names a slot: a label, or a reference to a group or operation.
type slotKey struct {
	name string
	ref  bool
}

// view returns the elements of pool from start on, with no room to grow
// into the elements appended after them.
func view[T any](pool []T, start int) []T { return pool[start:len(pool):len(pool)] }

// slot returns the slot of a label or reference of the operation being
// compiled.
func (b *builder) slot(name string, ref bool) int {
	for i, k := range b.keys {
		if k == (slotKey{name, ref}) {
			return i
		}
	}
	b.keys = append(b.keys, slotKey{name, ref})
	return len(b.keys) - 1
}

// compile compiles op into its plan.
func (b *builder) compile(op *model.Operation) {
	p := &b.plans[op.Index]
	p.op, b.keys = op, b.keys[:0]
	lay, err := b.dec.Layout(op)
	p.noLayout, p.value = err, lay.Value
	start := len(b.places)
	for _, pl := range lay.Places {
		care := lay.Mask >> uint(pl.Shift) & bitvec.Mask(pl.Width)
		b.places = append(b.places, place{name: pl.Name, ref: pl.Ref, slot: b.slot(pl.Name, pl.Ref), shift: pl.Shift, width: pl.Width, care: care})
	}
	p.places = view(b.places, start)
	start, p.bytes = len(b.variants), ^uint64(0)
	for _, v := range op.Variants {
		p.pinnable = p.pinnable || len(v.Guards) == 0
		if v.Syntax != nil {
			b.variants = append(b.variants, b.variant(p, v))
			p.bytes &= b.variants[len(b.variants)-1].bytes
		}
	}
	p.variants = view(b.variants, start)
	p.slots = len(b.keys)
}

// variant compiles v, a variant of p's operation with a SYNTAX.
func (b *builder) variant(p *opPlan, v *model.Variant) variant {
	op := p.op
	var pv variant
	start, lits := len(b.steps), len(b.lits)
	for _, e := range v.Syntax.Elems {
		switch el := e.(type) {
		case *ast.SyntaxString:
			// Literal spacing is presentational: a literal matches
			// trimmed, and a blank one matches anywhere.
			if lit := strings.TrimSpace(el.Text); lit != "" {
				upper := lit
				if hasLower(lit) {
					upper = string(appendUpper(nil, lit))
				}
				b.steps = append(b.steps, step{kind: stepLiteral, text: upper})
				if isASCII(lit) {
					b.lits = append(b.lits, upper)
					pv.bytes |= byteSet(upper)
				}
			}
		case *ast.SyntaxRef:
			s := step{kind: stepRef, text: el.Name}
			g, isGroup := op.Groups[el.Name]
			switch ref := b.m.Ops[el.Name]; {
			case op.Labels[el.Name]:
				s = step{kind: stepLabel, text: el.Name, slot: b.slot(el.Name, false), width: 64, signed: el.Format == "#s"}
				for _, pl := range p.places {
					if !pl.ref && pl.name == el.Name {
						s.width = pl.width // the first field's
						break
					}
				}
			case isGroup:
				s.slot = b.slot(el.Name, true)
				m := len(b.members)
				for _, mem := range g.Members {
					b.members = append(b.members, &b.plans[mem.Index])
				}
				s.members = view(b.members, m)
			case ref != nil:
				s.slot = b.slot(el.Name, true)
				b.members = append(b.members, &b.plans[ref.Index])
				s.members = view(b.members, len(b.members)-1)
			default:
				s.kind = stepUnknown
			}
			b.steps = append(b.steps, s)
		}
	}
	pv.steps, pv.lits = view(b.steps, start), view(b.lits, lits)
	start = len(b.guards)
	for _, g := range v.Guards {
		b.guards = append(b.guards, guard{slot: b.slot(g.Group, true), member: &b.plans[g.Member.Index], negate: g.Negate})
	}
	pv.guards = view(b.guards, start)
	return pv
}

// mayMatch reports whether some syntax variant of p has all its ASCII
// literals in upper, the statement with its ASCII letters upper-cased.
// matchLiteral compares a literal with an equal-length window of the
// statement by strings.EqualFold, which for an ASCII literal holds only on
// an ASCII window equal up to ASCII case, so a variant with a literal upper
// lacks cannot match.
//
// bytes is byteSet(upper): a variant that needs a byte it lacks is ruled
// out without a search.
func (p *opPlan) mayMatch(upper string, bytes uint64) bool {
variants:
	for i := range p.variants {
		v := &p.variants[i]
		if v.bytes&^bytes != 0 {
			continue
		}
		for _, lit := range v.lits {
			if !strings.Contains(upper, lit) {
				continue variants
			}
		}
		return true
	}
	return false
}

// byteSet returns the set of the bytes of s, each byte b as bit b%64.
func byteSet(s string) uint64 {
	var set uint64
	for i := 0; i < len(s); i++ {
		set |= 1 << (s[i] & 63)
	}
	return set
}

// stackSlots bounds the slots of the operations one match nests, so that
// a match keeps them on its own stack.
const stackSlots = 16

// matchState is the match of one statement.
type matchState struct {
	scan
	// symbols resolves symbolic operands (labels) to numeric values; nil
	// when there are none.
	symbols map[string]uint64
	// errs makes the match build its errors, err the first. A match with
	// the literal filter builds none: a statement that assembles does so
	// in that match, and one that does not is matched again without the
	// filter for its error.
	errs bool
	err  error
	// failed reports that the candidate being matched failed with an error.
	failed bool
	// slots is the stack the operations being matched keep their slots
	// on, top the first free one.
	top   int
	slots [stackSlots]slot
}

// errUnencoded stands for an encoding error in a match that builds none.
var errUnencoded = errors.New("operation does not encode")

// fail ends the candidate being matched with an error, and reports
// whether to build it: the first error of a match that builds errors.
func (st *matchState) fail() bool {
	st.failed = true
	return st.errs && st.err == nil
}

// frame takes n cleared slots from the stack, or from the heap for a
// syntax nested deeper than the stack holds.
func (st *matchState) frame(n int) []slot {
	if st.top+n > len(st.slots) {
		return make([]slot, n)
	}
	s := st.slots[st.top : st.top+n : st.top+n]
	st.top += n
	clear(s)
	return s
}

// op matches p at the scan position by its first syntax variant whose
// elements and guards match, and returns the word p encodes to then, or
// err, why p does not encode. A variant that fails restores the position.
func (st *matchState) op(p *opPlan) (w uint64, ok bool, err error) {
	base := st.top
	slots := st.frame(p.slots)
	for i := range p.variants {
		save := st.pos
		if ok = st.steps(p, &p.variants[i], slots) && st.pin(&p.variants[i], slots); ok {
			w, err = st.encode(p, slots)
			break
		}
		if st.failed {
			break
		}
		st.pos = save
		clear(slots)
	}
	st.top = base
	return w, ok, err
}

// steps matches v's syntax elements in order, binding p's slots.
func (st *matchState) steps(p *opPlan, v *variant, slots []slot) bool {
	for i := range v.steps {
		s := &v.steps[i]
		switch s.kind {
		case stepLiteral:
			if !st.matchLiteral(s.text) {
				return false
			}
		case stepLabel:
			x, ok := st.param(p, s)
			if !ok {
				return false
			}
			slots[s.slot] = slot{word: x, bound: true}
		case stepRef:
			if !st.ref(s, slots) {
				return false
			}
		default:
			if st.fail() {
				st.err = fmt.Errorf("syntax of %s references unknown symbol %s", p.op.Name, s.text)
			}
			return false
		}
	}
	return true
}

// ref binds s's slot to the first of its members that matches. A group
// referenced again must match the member it bound before, and binds that
// match.
func (st *matchState) ref(s *step, slots []slot) bool {
	for _, m := range s.members {
		save := st.pos
		if w, ok, err := st.op(m); ok {
			sl := &slots[s.slot]
			if sl.bound && sl.member != m {
				return false
			}
			*sl = slot{word: w, member: m, err: err, bound: true}
			return true
		}
		if st.failed {
			return false
		}
		st.pos = save
	}
	return false
}

// pin checks v's guards against the members bound, and binds each group
// that a guard names and the syntax left unbound to the guard's member.
// A negated guard cannot pin a member, so a group it names must be bound.
func (st *matchState) pin(v *variant, slots []slot) bool {
	for _, g := range v.guards {
		switch sl := &slots[g.slot]; {
		case g.negate:
			if !sl.bound {
				return false
			}
		case sl.bound:
			if sl.member != g.member {
				return false
			}
		case !g.member.pinnable:
			return false
		default:
			base := st.top
			w, err := st.encode(g.member, st.frame(g.member.slots))
			st.top = base
			*sl = slot{word: w, member: g.member, err: err, bound: true}
		}
	}
	return true
}

// encode fills p's layout from the slots of a match. Its error is
// coding.Encoder's for the first place in coding order that is unbound
// or binds a member that does not encode.
func (st *matchState) encode(p *opPlan, slots []slot) (uint64, error) {
	if p.noLayout != nil {
		return 0, p.noLayout
	}
	w := p.value
	for i := range p.places {
		pl := &p.places[i]
		switch sl := &slots[pl.slot]; {
		case !sl.bound && !st.errs:
			return 0, errUnencoded
		case !sl.bound && pl.ref:
			return 0, fmt.Errorf("operation %s: reference %s unbound", p.op.Name, pl.name)
		case !sl.bound:
			return 0, fmt.Errorf("operation %s: label %s unbound", p.op.Name, pl.name)
		case sl.err != nil:
			return 0, sl.err
		}
		w |= (slots[pl.slot].word &^ pl.care & bitvec.Mask(pl.width)) << uint(pl.shift)
	}
	return w, nil
}

// param scans the numeric or symbolic operand of label step s of p, and
// returns its value in the label's field width.
func (st *matchState) param(p *opPlan, s *step) (uint64, bool) {
	v, ok, big := st.number(s.signed)
	if !ok && big == "" {
		sym, isSym := st.symbol()
		if !isSym {
			return 0, false
		}
		if v, ok = st.symbols[sym]; !ok {
			if st.fail() {
				st.err = fmt.Errorf("undefined symbol %q", sym)
			}
			return 0, false
		}
		// Optional +offset / -offset on symbolic operands.
		if st.pos < len(st.text) && (st.text[st.pos] == '+' || st.text[st.pos] == '-') {
			neg := st.text[st.pos] == '-'
			st.pos++
			var off uint64
			if off, ok, big = st.number(false); !ok && big == "" {
				if st.fail() {
					st.err = fmt.Errorf("malformed offset after symbol %q", sym)
				}
				return 0, false
			}
			if neg {
				v -= off
			} else {
				v += off
			}
		}
	}
	if big != "" {
		if st.fail() {
			st.err = tooBig(big)
		}
		return 0, false
	}
	if !fits(v, s.width, s.signed) {
		if st.fail() {
			var val any = v
			kind := ""
			if s.signed {
				val, kind = int64(v), " signed"
			}
			st.err = fmt.Errorf("%s: operand %s value %d does not fit in %d%s bits", p.op.Name, s.text, val, s.width, kind)
		}
		return 0, false
	}
	return v & bitvec.Mask(s.width), true
}

// fits reports whether an operand value fits its field width. An unsigned
// field also takes the negative two's complement spelling of its values.
func fits(v uint64, width int, signed bool) bool {
	switch {
	case width >= 64:
		return true
	case signed:
		iv, max := int64(v), int64(bitvec.Mask(width-1))
		return iv >= -max-1 && iv <= max
	default:
		return v <= bitvec.Mask(width) || int64(v) < 0 && -int64(v) <= int64(bitvec.Mask(width-1))+1
	}
}

// tooBig reports big, a constant past 64 bits.
func tooBig(big string) error {
	return fmt.Errorf("integer constant %q overflows 64 bits", big)
}

// scan is a scan position in a statement.
type scan struct {
	text string
	pos  int
}

func (st *scan) skipSpace() {
	for st.pos < len(st.text) && (st.text[st.pos] == ' ' || st.text[st.pos] == '\t') {
		st.pos++
	}
}

func (st *scan) atEnd() bool {
	st.skipSpace()
	return st.pos >= len(st.text)
}

// matchLiteral matches a trimmed, non-empty syntax string
// case-insensitively. Whitespace in the input is allowed (and skipped)
// before the literal, but literals themselves must appear contiguously.
func (st *scan) matchLiteral(lit string) bool {
	st.skipSpace()
	if st.pos+len(lit) > len(st.text) {
		return false
	}
	if !strings.EqualFold(st.text[st.pos:st.pos+len(lit)], lit) {
		return false
	}
	// A literal ending in an identifier character must not split a longer
	// mnemonic in the input ("ADD" must not match "ADDI"). A digit may
	// follow directly, though: register syntax concatenates a letter prefix
	// with a numeric parameter ("A" index matches "A4").
	end := st.pos + len(lit)
	if isWordChar(lit[len(lit)-1]) && end < len(st.text) && isLetter(st.text[end]) {
		return false
	}
	st.pos = end
	return true
}

func isWordChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// number scans an integer: decimal, hex (0x...), optional leading '-'.
// A constant that does not fit in 64 bits is consumed fully and returned
// as big, its text, to be reported as a range error — silently wrapping
// would assemble a wrong encoding (e.g. 18446744073709551617 used to scan
// as 1).
func (st *scan) number(signed bool) (v uint64, ok bool, big string) {
	st.skipSpace()
	start := st.pos
	neg := false
	if signed && st.pos < len(st.text) && st.text[st.pos] == '-' {
		neg = true
		st.pos++
	}
	const maxU = ^uint64(0)
	digits := 0
	overflow := false
	if st.pos+1 < len(st.text) && st.text[st.pos] == '0' && (st.text[st.pos+1] == 'x' || st.text[st.pos+1] == 'X') {
		st.pos += 2
		for st.pos < len(st.text) {
			c := st.text[st.pos]
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				goto doneHex
			}
			if v > (maxU-d)/16 {
				overflow = true
			}
			v = v*16 + d
			digits++
			st.pos++
		}
	doneHex:
	} else {
		for st.pos < len(st.text) && st.text[st.pos] >= '0' && st.text[st.pos] <= '9' {
			d := uint64(st.text[st.pos] - '0')
			if v > (maxU-d)/10 {
				overflow = true
			}
			v = v*10 + d
			digits++
			st.pos++
		}
	}
	if digits == 0 {
		st.pos = start
		return 0, false, ""
	}
	if overflow {
		return 0, false, st.text[start:st.pos]
	}
	if neg {
		v = -v
	}
	return v, true, ""
}

// symbol scans an identifier.
func (st *scan) symbol() (string, bool) {
	st.skipSpace()
	start := st.pos
	if st.pos >= len(st.text) || !isSymStart(st.text[st.pos]) {
		return "", false
	}
	for st.pos < len(st.text) && isWordChar(st.text[st.pos]) {
		st.pos++
	}
	return st.text[start:st.pos], true
}

func isSymStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
