package coding

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// A coding leaf is one path through the coding tree below a root: one
// member chosen at every reference, at any depth. NewDecoder compiles each
// operation's CODING once into a plan, and a word decodes by walking the
// plans to its leaf id and LABEL field values.

// Bounds on a plan. A tree past them has no plan, and a model that has
// one fails to load (Check).
const (
	maxLeaves     = 1 << 30 // leaves below one operation, so that ids fit an int32
	maxSelections = 1 << 12 // member combinations a variant table covers
)

// plan is one operation's CODING compiled for decoding. A word matches
// the operation when its fixed bits agree, every reference selects a
// member by first match, and the chosen members select a variant. Leaf
// ids count in mixed radix, the first reference the most significant
// digit: the order in which first match tries the leaves.
type plan struct {
	op          *model.Operation
	sec         *ast.CodingSec
	elems       []elem  // LABEL fields and references, in coding order
	places      []Place // every LABEL field and reference, in coding order
	mask, value uint64  // fixed bits, the coding's lowest bit at bit 0
	width       int
	leaves      int // product of the references' radices
	fields      int // most LABEL fields of any leaf
	// variants[sel] is what the members chosen at the references select,
	// sel being their mixed-radix number, or nil. An operation whose first
	// variant has no guard holds that one alone.
	variants []*model.Variant
	gaps     bool  // some member choice selects no variant
	err      error // why op has no plan, a *planError
}

// planError says why an operation's CODING has no plan. An operation
// whose coding refers to one without a plan has the same error, so op is
// the operation compiling stopped at.
type planError struct {
	op  *model.Operation
	msg string
}

func (e *planError) Error() string { return e.msg }

func errorf(op *model.Operation, format string, args ...any) error {
	return &planError{op, fmt.Sprintf(format, args...)}
}

// elem is a LABEL field or a reference at bit shift of its plan's coding.
// A label repeated in one CODING is one field, at its first place, with
// its last field's bits, as the walk binds it.
type elem struct {
	name          string       // a field's label, or a reference's name
	group         *model.Group // a reference's members; nil for a field
	shift, width  int32        // width: a field's
	radix, weight int32        // a reference's leaves, and its digit's place value
}

// builder carves a decoder's plans, elements and places out of one
// array each, sized by counting the model's codings first: retargeting
// builds a decoder for every edit of a model, so a decoder costs a few
// allocations.
type builder struct {
	d      *Decoder
	plans  []plan
	elems  []elem
	places []Place
	sel    map[string]*model.Operation // reused by compileVariants
}

// compiling stands in d.plans for an operation whose plan is being
// compiled, so that a coding that reaches it again is found recursive.
var compiling = &plan{}

// compilePlans compiles the CODING of every operation, and the coding
// tree below every coding root.
func (d *Decoder) compilePlans() {
	nPlans, nElems := 0, 0
	for _, op := range d.m.OpList {
		for _, v := range op.Variants {
			if v.Coding != nil {
				nPlans++
				nElems += elemCount(v.Coding)
			}
		}
	}
	b := &builder{d: d, plans: make([]plan, 0, nPlans), elems: make([]elem, 0, nElems), places: make([]Place, 0, nElems)}
	d.plans = make([]*plan, len(d.m.OpList))
	for _, op := range d.m.OpList {
		b.opPlan(op)
		if !op.IsCodingRoot {
			continue
		}
		if sec := RootCoding(op); sec != nil {
			d.roots = append(d.roots, b.compile(op, sec, d.elemsWidth(op, sec.Elems)))
		} else {
			d.roots = append(d.roots, &plan{op: op, err: errorf(op, "coding root %s has no root coding section", op.Name)})
		}
	}
}

// opPlan returns the plan of op's own CODING, or nil when it has none.
func (b *builder) opPlan(op *model.Operation) *plan {
	d := b.d
	if op.Index >= len(d.plans) || d.m.OpList[op.Index] != op {
		return &plan{op: op, err: errorf(op, "operation %s is not in model %s", op.Name, d.m.Name)}
	}
	switch p := d.plans[op.Index]; p {
	case compiling:
		return &plan{op: op, err: errorf(op, "recursive coding through %s", op.Name)}
	case nil:
	default:
		return p
	}
	sec := OpCoding(op)
	if sec == nil {
		return nil
	}
	d.plans[op.Index] = compiling
	p := b.compile(op, sec, op.CodingWidth)
	d.plans[op.Index] = p
	return p
}

// compile compiles op's coding section sec, which spans width bits.
func (b *builder) compile(op *model.Operation, sec *ast.CodingSec, width int) *plan {
	fail := func(format string, args ...any) *plan {
		return &plan{op: op, err: errorf(op, "operation %s: "+format, append([]any{op.Name}, args...)...)}
	}
	if width > bitvec.MaxWidth {
		return fail("coding width %d exceeds the %d-bit instruction word limit", width, bitvec.MaxWidth)
	}
	lo, n := len(b.elems), elemCount(sec)
	b.elems, b.places = b.elems[:lo+n], b.places[:lo+n]
	b.plans = append(b.plans, plan{op: op, sec: sec, elems: b.elems[lo : lo : lo+n], places: b.places[lo : lo : lo+n], width: width, leaves: 1})
	p := &b.plans[len(b.plans)-1]
	cursor := width
	for _, e := range sec.Elems {
		var bits string
		switch el := e.(type) {
		case *ast.CodingPattern:
			bits = el.Bits
		case *ast.CodingField:
			bits = el.Bits
			f := elem{name: el.Label, shift: int32(cursor - len(bits)), width: int32(len(bits))}
			if i := p.field(el.Label); i >= 0 {
				p.elems[i] = f
			} else {
				p.elems = append(p.elems, f)
			}
			p.places = append(p.places, Place{Name: el.Label, Shift: int(f.shift), Width: len(bits)})
		case *ast.CodingRef:
			p.elems = p.elems[:len(p.elems)+1]
			r := &p.elems[len(p.elems)-1]
			if err := b.compileRef(r, op, el.Name); err != nil {
				return &plan{op: op, err: err}
			}
			cursor -= int(r.width)
			r.shift = int32(cursor)
			p.places = append(p.places, Place{Name: el.Name, Ref: true, Shift: cursor, Width: int(r.width)})
		}
		if cursor -= len(bits); cursor < 0 {
			return fail("coding elements span more than its %d bits", width)
		}
		p.mask |= patternCareMask(bits) << uint(cursor)
		p.value |= patternValue(bits) << uint(cursor)
	}
	if cursor != 0 {
		return fail("coding elements span less than its %d bits", width)
	}
	for i := len(p.elems) - 1; i >= 0; i-- {
		e := &p.elems[i]
		if e.group == nil {
			p.fields++
			continue
		}
		if e.radix > 0 && p.leaves > maxLeaves/int(e.radix) {
			return fail("more than %d coding leaves", maxLeaves)
		}
		e.weight = int32(p.leaves)
		p.leaves *= int(e.radix)
		most := 0
		for _, mem := range e.group.Members {
			if mp := b.d.plans[mem.Index]; mp != nil {
				most = max(most, mp.fields)
			}
		}
		p.fields += most
	}
	if err := b.compileVariants(p); err != nil {
		return &plan{op: op, err: err}
	}
	return p
}

// elemCount returns the number of LABEL fields and references in sec.
func elemCount(sec *ast.CodingSec) int {
	n := 0
	for _, e := range sec.Elems {
		if _, pattern := e.(*ast.CodingPattern); !pattern {
			n++
		}
	}
	return n
}

// field returns the index of p's field for label, or -1.
func (p *plan) field(label string) int {
	for i, e := range p.elems {
		if e.group == nil && e.name == label {
			return i
		}
	}
	return -1
}

// compileRef compiles op's reference to name into r, with its members'
// plans. Its width is the bits it takes: a group's first member's coding
// width.
func (b *builder) compileRef(r *elem, op *model.Operation, name string) error {
	r.name = name
	if g, ok := op.Groups[name]; ok {
		r.group, r.width = g, int32(groupWidth(g))
	} else if m := b.d.m.Ops[name]; m != nil {
		r.group, r.width = &model.Group{Name: name, Owner: op, Members: []*model.Operation{m}}, int32(m.CodingWidth)
	} else {
		return errorf(op, "operation %s: unknown coding reference %s", op.Name, name)
	}
	for _, mem := range r.group.Members {
		switch mp := b.opPlan(mem); {
		case mp == nil:
		case mp.err != nil:
			return mp.err
		case mp.width > int(r.width):
			return errorf(op, "operation %s: member %s is wider than its %d bits", op.Name, mem.Name, r.width)
		case int(r.radix) > maxLeaves-mp.leaves:
			return errorf(op, "operation %s: more than %d coding leaves below %s", op.Name, maxLeaves, name)
		default:
			r.radix += int32(mp.leaves)
		}
	}
	return nil
}

// compileVariants fills p's variant table. A later reference of a
// repeated name overrides an earlier one, as in DecodeRoot's bindings.
func (b *builder) compileVariants(p *plan) error {
	vs := p.op.Variants
	if len(vs) == 0 || len(vs[0].Guards) == 0 {
		p.variants = vs[:min(len(vs), 1)]
		return nil
	}
	n := 1
	for _, e := range p.elems {
		if e.group != nil {
			if n *= len(e.group.Members); n > maxSelections {
				return errorf(p.op, "operation %s: more than %d member combinations select its variant", p.op.Name, maxSelections)
			}
		}
	}
	p.variants = make([]*model.Variant, n)
	if b.sel == nil {
		b.sel = map[string]*model.Operation{}
	}
next:
	for s := range p.variants {
		clear(b.sel)
		rest := s
		for i := len(p.elems) - 1; i >= 0; i-- {
			e := &p.elems[i]
			if e.group == nil {
				continue
			}
			mem := e.group.Members[rest%len(e.group.Members)]
			rest /= len(e.group.Members)
			if b.d.plans[mem.Index] == nil {
				continue next // never chosen
			}
			if _, later := b.sel[e.name]; !later {
				b.sel[e.name] = mem
			}
		}
		p.variants[s] = p.op.SelectVariant(b.sel)
		p.gaps = p.gaps || p.variants[s] == nil
	}
	return nil
}

// variant returns the variant the member choices sel select.
func (p *plan) variant(sel int) *model.Variant {
	switch len(p.variants) {
	case 0:
		return nil
	case 1:
		return p.variants[0]
	}
	return p.variants[sel]
}

// match matches x, whose low bits hold p's coding, by nested first match:
// at every reference the first member, in declaration order, whose own
// coding matches (the paper's selection rule). On a match it returns the leaf, and the index after the
// LABEL field values it wrote to fields from n on; fields may be nil. A
// member that fails may leave values past n.
func (d *Decoder) match(p *plan, x uint64, fields []uint64, n int) (leaf, next int, ok bool) {
	if x&p.mask != p.value {
		return 0, n, false
	}
	sel := 0
	for i := range p.elems {
		e := &p.elems[i]
		if e.group == nil {
			if fields != nil {
				fields[n] = x >> uint(e.shift) & bitvec.Mask(int(e.width))
			}
			n++
			continue
		}
		xr, members := x>>uint(e.shift), e.group.Members
		base, j := 0, 0
		for ; j < len(members); j++ {
			mp := d.plans[members[j].Index]
			if mp == nil {
				continue
			}
			if xr&mp.mask == mp.value {
				if l, after, ok := d.match(mp, xr, fields, n); ok {
					leaf, n = leaf+(base+l)*int(e.weight), after
					break
				}
			}
			base += mp.leaves
		}
		if j == len(members) {
			return 0, n, false
		}
		sel = sel*len(members) + j
	}
	return leaf, n, p.variant(sel) != nil
}

// instance builds the instance tree of p's leaf. With shape nil it binds
// the LABEL fields to their bits in x; otherwise it leaves them unbound
// and appends each to *shape. ok is false when some node selects no
// variant, which only a leaf no word matches does.
func (d *Decoder) instance(p *plan, x uint64, leaf int, shape *[]Field) (in *model.Instance, ok bool) {
	in, ok = model.NewInstance(p.op), true
	sel := 0
	for i := range p.elems {
		e := &p.elems[i]
		if e.group == nil {
			if shape != nil {
				*shape = append(*shape, Field{Node: in, Label: e.name, Width: int(e.width)})
			} else {
				in.Labels[e.name] = bitvec.New(x>>uint(e.shift), int(e.width))
			}
			continue
		}
		j, mp, below := d.member(e, leaf)
		sel = sel*len(e.group.Members) + j
		child, childOK := d.instance(mp, x>>uint(e.shift), below, shape)
		in.Bindings[e.name], ok = child, ok && childOK
	}
	in.Variant = p.variant(sel)
	return in, ok && in.Variant != nil
}

// member returns the member that leaf, a leaf id of e's plan, binds at
// reference e: its index among e's members, its plan and its own leaf id.
func (d *Decoder) member(e *elem, leaf int) (j int, mp *plan, below int) {
	below, members := leaf/int(e.weight)%int(e.radix), e.group.Members
	for mp = d.plans[members[0].Index]; mp == nil || below >= mp.leaves; mp = d.plans[members[j].Index] {
		if mp != nil {
			below -= mp.leaves
		}
		j++
	}
	return j, mp, below
}

// explain says why x, whose low bits hold p's coding, matches no leaf of
// p: the first element of p's CODING, most significant first, that x
// fails, or else the variant its members select. A group whose members
// all fail wraps its first member's explanation.
func (d *Decoder) explain(p *plan, x uint64) error {
	cursor, ref, sel := p.width, 0, 0
	for _, el := range p.sec.Elems {
		switch el := el.(type) {
		case *ast.CodingPattern:
			cursor -= len(el.Bits)
			if v := x >> uint(cursor) & bitvec.Mask(len(el.Bits)); v&patternCareMask(el.Bits) != patternValue(el.Bits) {
				return fmt.Errorf("operation %s: pattern %s does not match %s", p.op.Name, el.Bits, bitvec.New(v, len(el.Bits)).BinString())
			}
		case *ast.CodingField:
			cursor -= len(el.Bits)
			if x>>uint(cursor)&patternCareMask(el.Bits) != patternValue(el.Bits) {
				return fmt.Errorf("operation %s: field %s fixed bits do not match", p.op.Name, el.Label)
			}
		case *ast.CodingRef:
			for p.elems[ref].group == nil {
				ref++
			}
			e, members := &p.elems[ref], p.elems[ref].group.Members
			ref++
			cursor = int(e.shift)
			xr := x >> uint(e.shift) & bitvec.Mask(int(e.width))
			if j := d.first(e, xr); j >= 0 {
				sel = sel*len(members) + j
				continue
			}
			why := fmt.Errorf("group has no members")
			if len(members) > 0 {
				why = fmt.Errorf("operation %s has no coding", members[0].Name)
				if mp := d.plans[members[0].Index]; mp != nil {
					why = d.explain(mp, xr)
				}
			}
			if _, isGroup := p.op.Groups[e.name]; !isGroup {
				return why // a reference to one operation by name
			}
			return fmt.Errorf("operation %s, group %s: no member matches %s: %w",
				p.op.Name, e.name, bitvec.New(xr, int(e.width)).BinString(), why)
		}
	}
	if p.variant(sel) == nil {
		return fmt.Errorf("operation %s: no variant matches binding", p.op.Name)
	}
	return fmt.Errorf("operation %s: %#x matches", p.op.Name, x) // not reached on a miss
}

// first returns the index of the member that x, the bits of reference
// e, selects by first match, or -1.
func (d *Decoder) first(e *elem, x uint64) int {
	for j, mem := range e.group.Members {
		if mp := d.plans[mem.Index]; mp != nil {
			if _, _, ok := d.match(mp, x, nil, 0); ok {
				return j
			}
		}
	}
	return -1
}

// Field is one LABEL field of a coding leaf: the node of the leaf's
// instance tree that binds it, its label and its width in bits.
type Field struct {
	Node  *model.Instance
	Label string
	Width int
}

// rootPlan returns root's compiled coding tree.
func (d *Decoder) rootPlan(root *model.Operation) (*plan, error) {
	for _, p := range d.roots {
		if p.op == root {
			return p, p.err
		}
	}
	if !root.IsCodingRoot {
		return nil, fmt.Errorf("operation %s is not a coding root", root.Name)
	}
	return nil, fmt.Errorf("coding root %s has no compiled coding tree", root.Name)
}

// Leaves returns the number of coding leaves below root, and the most
// LABEL fields any one of them has. Leaf ids run from 0 in the order
// first match tries the leaves. A leaf whose members select no
// variant is a gap: no word decodes to it, and Shape reports it.
func (d *Decoder) Leaves(root *model.Operation) (leaves, fields int, err error) {
	p, err := d.rootPlan(root)
	if err != nil {
		return 0, 0, err
	}
	return p.leaves, p.fields, nil
}

// Leaf decodes word against root's coding tree to its leaf id, and puts
// the leaf's LABEL field values in fields, in Shape's order, zeroing the
// rest of the first Leaves-count fields. It allocates nothing on a match.
// On a miss the fields are zero and the error is DecodeRoot's.
func (d *Decoder) Leaf(root *model.Operation, word bitvec.Value, fields []uint64) (int, error) {
	p, err := d.rootPlan(root)
	if err != nil {
		return 0, err
	}
	if len(fields) < p.fields {
		return 0, fmt.Errorf("coding root %s: %d field values for leaves of up to %d fields", root.Name, len(fields), p.fields)
	}
	x := word.Uint() & bitvec.Mask(p.width)
	if leaf, n, ok := d.match(p, x, fields, 0); ok {
		clear(fields[n:p.fields])
		return leaf, nil
	}
	clear(fields[:p.fields])
	return 0, d.explain(p, x)
}

// Shape returns the instance tree of root's leaf, with its variants
// resolved and its LABEL fields unbound, and the leaf's fields: for each
// field index of Leaf, the node that binds it, its label and its width.
func (d *Decoder) Shape(root *model.Operation, leaf int) (*model.Instance, []Field, error) {
	p, err := d.rootPlan(root)
	if err != nil {
		return nil, nil, err
	}
	if leaf < 0 || leaf >= p.leaves {
		return nil, nil, fmt.Errorf("coding root %s has no leaf %d", root.Name, leaf)
	}
	var fields []Field
	in, ok := d.instance(p, 0, leaf, &fields)
	if !ok {
		return nil, nil, fmt.Errorf("leaf %d of coding root %s selects no variant", leaf, root.Name)
	}
	return in, fields, nil
}

// Layout is the bit layout of an operation's CODING as its plan holds
// it, the coding's lowest bit at bit 0. An encoding of the operation is
// Value with the bits of each place filled in, except those Mask marks
// fixed.
type Layout struct {
	Mask, Value uint64 // the fixed bits of its patterns and LABEL fields
	// Places lists the LABEL fields and references in coding order; a
	// label repeated in the CODING has a place at each of its fields.
	Places []Place
}

// Place is one LABEL field or reference of a CODING.
type Place struct {
	Name         string // the field's label, or the referenced group or operation
	Ref          bool   // a reference, not a field
	Shift, Width int
}

// Layout returns the bit layout of op's CODING. For an operation without
// a CODING the error is Encoder's; for one whose CODING has no plan it
// says why.
func (d *Decoder) Layout(op *model.Operation) (Layout, error) {
	if op.Index >= len(d.plans) || d.m.OpList[op.Index] != op {
		return Layout{}, fmt.Errorf("operation %s is not in model %s", op.Name, d.m.Name)
	}
	switch p := d.plans[op.Index]; {
	case p == nil:
		return Layout{}, fmt.Errorf("operation %s has no coding", op.Name)
	case p.err != nil:
		return Layout{}, p.err
	default:
		return Layout{Mask: p.mask, Value: p.value, Places: p.places}, nil
	}
}

// Check returns an error for the first operation, in declaration order,
// whose CODING has no plan, at the source position of the operation
// compiling stopped at: a tree past the plans' bounds, or one the
// decoder cannot walk at all.
func (d *Decoder) Check() error {
	for _, op := range d.m.OpList {
		if p := d.plans[op.Index]; p != nil && p.err != nil {
			return positioned(p.err)
		}
	}
	for _, p := range d.roots {
		if p.err != nil {
			return positioned(p.err)
		}
	}
	return nil
}

// positioned prefixes a plan error with its operation's source position.
func positioned(err error) error {
	if pe, ok := err.(*planError); ok && pe.op.Src != nil {
		return fmt.Errorf("%s: %w", pe.op.Src.Pos, err)
	}
	return err
}
