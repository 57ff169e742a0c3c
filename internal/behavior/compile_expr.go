package behavior

import (
	"cmp"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// --- typed expressions ------------------------------------------------------------
//
// Every expression of a bound instance has a static type: expr.go's
// widening rules decide each node's width and signedness from its
// operands', and the leaves' types are declared (resources, locals) or
// fixed (literals, labels). The compiler works them out once, so a
// closure returns a bare payload and never handles a width at run time.

// typ is the static type of an expression: its width and signedness.
type typ struct {
	w      int
	signed bool
}

// cexpr is a compiled expression. It returns the payload of a value of
// the expression's static type, zero-extended into a uint64.
type cexpr func(*cstate) uint64

// texpr is a compiled expression with its static type. f is nil for a
// constant, whose payload is k.
type texpr struct {
	typ
	f cexpr
	k uint64
}

// fn returns e's closure, making one for a constant.
func (e texpr) fn() cexpr {
	if e.f != nil {
		return e.f
	}
	k := e.k
	return func(*cstate) uint64 { return k }
}

// extend brings the payload v from width from to width to: sign-extended
// when signed is set, zero-extended otherwise, truncated when narrower.
func extend(v uint64, from, to int, signed bool) uint64 {
	if signed {
		return uint64(bitvec.Sext(v, from)) & bitvec.Mask(to)
	}
	return v & bitvec.Mask(to)
}

// to returns e at width w, extended as extend does. The type keeps e's
// signedness.
func (e texpr) to(w int, signed bool) texpr {
	out := texpr{typ: typ{w, e.signed}}
	switch {
	case e.f == nil:
		out.k = extend(e.k, e.w, w, signed)
	case e.w == w || e.w < w && !signed:
		out.f = e.f // the payload already reads the same at w
	default:
		f, from := e.f, e.w
		out.f = func(cs *cstate) uint64 { return extend(f(cs), from, w, signed) }
	}
	return out
}

// fold evaluates a node whose operands are all constants through the
// interpreter, the reference: it reads no state.
func (c *compiler) fold(e ast.Expr) texpr {
	v := c.x.eval(&frame{inst: c.in}, e)
	return texpr{typ: typ{v.v.Width(), v.signed}, k: v.v.Uint()}
}

// untypedExpr marks the instance as having a node with no static type and
// returns a stand-in, never a constant; the instance then runs through the
// interpreter.
func (c *compiler) untypedExpr() texpr {
	c.untyped = true
	return texpr{typ: typ{1, false}, f: func(*cstate) uint64 { return 0 }}
}

func (c *compiler) compileExpr(e ast.Expr) texpr {
	switch ex := e.(type) {
	case *ast.NumLit:
		return c.fold(e)
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			slot := ex.Index
			return texpr{typ: typ{ex.Type.Width, ex.Type.Signed()}, f: func(cs *cstate) uint64 { return cs.locals[slot] }}
		case ast.RefLabel:
			return c.fold(e)
		case ast.RefOperand:
			if child := c.operand(ex.Name); child != nil {
				v := child.compileExpr(expressionOf(child.in))
				c.untyped = c.untyped || child.untyped
				return v
			}
			// The width-0 zero of an unbound operand, never a constant:
			// folding would evaluate the missing binding.
			return texpr{f: func(*cstate) uint64 { return 0 }}
		default: // ast.RefResource
			return c.resource(c.x.M.Resources[ex.Index]).texpr
		}
	case *ast.IndexExpr:
		return c.compileIndexRef(ex).texpr
	case *ast.BitsExpr:
		x, hi, lo := c.compileExpr(ex.X), c.compileExpr(ex.Hi), c.compileExpr(ex.Lo)
		if x.f == nil && hi.f == nil && lo.f == nil {
			return c.fold(e)
		}
		return c.slice(x, hi, lo)
	case *ast.UnaryExpr:
		x := c.compileExpr(ex.X)
		if x.f == nil {
			return c.fold(e)
		}
		return unary(ex.Op, x)
	case *ast.BinaryExpr:
		l, r := c.compileExpr(ex.L), c.compileExpr(ex.R)
		if l.f == nil && (r.f == nil || (ex.Op == "&&") != (l.k != 0) && (ex.Op == "&&" || ex.Op == "||")) {
			return c.fold(e) // constant, or decided by a constant left operand
		}
		return binary(ex.Op, l, r)
	case *ast.CondExpr:
		cc, tt, ff := c.compileExpr(ex.C), c.compileExpr(ex.T), c.compileExpr(ex.F)
		switch {
		case cc.f == nil && cc.k != 0:
			return tt
		case cc.f == nil:
			return ff
		case tt.typ != ff.typ:
			return c.untypedExpr()
		}
		cf, tf, fk := cc.f, tt.fn(), ff.fn()
		return texpr{typ: tt.typ, f: func(cs *cstate) uint64 {
			if cf(cs) != 0 {
				return tf(cs)
			}
			return fk(cs)
		}}
	default: // *ast.CallExpr of a builtin
		return c.compileBuiltin(e.(*ast.CallExpr))
	}
}

// operand returns the compiler of a bound operand's EXPRESSION section, in
// the operand's own context (its labels folded as constants). Only the
// static instance of a coding root lacks bindings, and the simulator never
// runs that instance (it decodes the root first): its operand accesses
// compile to nothing and return nil.
func (c *compiler) operand(name string) *compiler {
	in := c.in.Bindings[name]
	if in == nil {
		return nil
	}
	return &compiler{x: c.x, in: in}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// unary compiles a unary operator over a non-constant operand, as the
// binary operator that computes it: -x is a signed 0-x, ~x is x^all ones
// and !x is x==0.
func unary(op string, x texpr) texpr {
	switch op {
	case "-":
		return binary("-", texpr{typ: typ{x.w, true}}, x)
	case "!":
		return binary("==", x, texpr{typ: x.typ})
	case "~":
		return binary("^", x, texpr{typ: x.typ, k: bitvec.Mask(x.w)})
	}
	return x // "+"
}

// binary compiles a binary operator over compiled operands (compileExpr
// folds two constants first), typed as binopFor computes it: arithmetic,
// bitwise and equality operators widen both operands to the wider width,
// sign-extending signed ones, and are signed when either operand is;
// shifts keep the left operand's type; comparisons and logical operators
// give 1 bit, unsigned.
func binary(op string, l, r texpr) texpr {
	switch op {
	case "&&", "||":
		lf, rf, and := l.fn(), r.fn(), op == "&&"
		return texpr{typ: typ{1, false}, f: func(cs *cstate) uint64 {
			if lv := lf(cs) != 0; lv != and {
				return b2u(lv)
			}
			return b2u(rf(cs) != 0)
		}}
	case "<<", ">>":
		return shift(op, l, r)
	}
	w, signed := max(l.w, r.w), l.signed || r.signed
	if want, ok := outcomes[op]; ok {
		// == and != widen both operands to w, each by its own
		// signedness. An ordering compares them as signed w-bit values
		// when either is signed: sign-extended to 64 bits, with the sign
		// bit flipped to order as unsigned words.
		kl, kr := cmpKey{64, ^uint64(0), 0}, cmpKey{64, ^uint64(0), 0}
		switch {
		case op == "==" || op == "!=":
			kl.m, kr.m = bitvec.Mask(w), bitvec.Mask(w)
			if l.signed {
				kl.sx = l.w
			}
			if r.signed {
				kr.sx = r.w
			}
		case signed:
			kl.flip, kr.flip = 1<<63, 1<<63
			if l.signed || l.w == w {
				kl.sx = l.w
			}
			if r.signed || r.w == w {
				kr.sx = r.w
			}
		}
		a, b := l.fn(), r.fn()
		if r.f == nil {
			k := kr.of(r.k)
			return texpr{typ: typ{1, false}, f: func(cs *cstate) uint64 { return want >> (cmp.Compare(kl.of(a(cs)), k) + 1) & 1 }}
		}
		return texpr{typ: typ{1, false}, f: func(cs *cstate) uint64 { return want >> (cmp.Compare(kl.of(a(cs)), kr.of(b(cs))) + 1) & 1 }}
	}
	a, b, m := l.to(w, l.signed).fn(), r.to(w, r.signed), bitvec.Mask(w)
	out := texpr{typ: typ{w, signed}}
	if k := b.k; b.f == nil && (op == "+" || op == "&") {
		if op == "+" {
			out.f = func(cs *cstate) uint64 { return (a(cs) + k) & m }
		} else {
			out.f = func(cs *cstate) uint64 { return a(cs) & k }
		}
		return out
	}
	var word func(x, y uint64) uint64
	switch op {
	case "+":
		word = func(x, y uint64) uint64 { return (x + y) & m }
	case "-":
		word = func(x, y uint64) uint64 { return (x - y) & m }
	case "*":
		word = func(x, y uint64) uint64 { return x * y & m }
	case "&":
		word = func(x, y uint64) uint64 { return x & y }
	case "|":
		word = func(x, y uint64) uint64 { return x | y }
	case "^":
		word = func(x, y uint64) uint64 { return x ^ y }
	case "/":
		word = func(x, y uint64) uint64 {
			switch {
			case signed:
				return bitvec.DivSWord(x, y, w)
			case y == 0:
				return m
			}
			return x / y
		}
	default: // "%"
		word = func(x, y uint64) uint64 {
			switch {
			case signed:
				return bitvec.RemSWord(x, y, w)
			case y == 0:
				return 0
			}
			return x % y
		}
	}
	bf := b.fn()
	out.f = func(cs *cstate) uint64 { return word(a(cs), bf(cs)) }
	return out
}

// outcomes gives each comparison the outcomes that make it true, as bit
// cmp.Compare(x, y)+1: 0 less, 1 equal, 2 greater.
var outcomes = map[string]uint64{"<": 0b001, "==": 0b010, ">": 0b100, "!=": 0b101, "<=": 0b011, ">=": 0b110}

// cmpKey maps an operand's payload to a word that compares as the
// operator has it: sign-extended from bit sx-1 (64 leaves it), masked by
// m, and with flip's sign bit flipped, which orders signed words as
// unsigned ones.
type cmpKey struct {
	sx      int
	m, flip uint64
}

func (k cmpKey) of(v uint64) uint64 { return uint64(bitvec.Sext(v, k.sx))&k.m ^ k.flip }

// shift compiles << and >>: the count is the right operand's payload &63,
// and a count of the left operand's width or more clears it (<<, unsigned
// >>) or leaves its sign (signed >>).
func shift(op string, l, r texpr) texpr {
	a, w, m := l.fn(), l.w, bitvec.Mask(l.w)
	word := func(x, n uint64) uint64 { return bitvec.ShrSWord(x, uint(n), w) }
	switch {
	case op == "<<":
		word = func(x, n uint64) uint64 { return x << n & m * b2u(n < uint64(w)) }
	case !l.signed:
		word = func(x, n uint64) uint64 { return x >> n * b2u(n < uint64(w)) }
	}
	if n := r.k & 63; r.f == nil {
		return texpr{typ: l.typ, f: func(cs *cstate) uint64 { return word(a(cs), n) }}
	}
	nf := r.f
	return texpr{typ: l.typ, f: func(cs *cstate) uint64 { return word(a(cs), nf(cs)&63) }}
}

// slice compiles x[hi..lo] and bits(x, hi, lo): bits hi..lo of x,
// unsigned. Only constant bounds give it a static width.
func (c *compiler) slice(x, hi, lo texpr) texpr {
	if hi.f != nil || lo.f != nil {
		return c.untypedExpr()
	}
	h, l := int(bitvec.Sext(hi.k, hi.w)), int(bitvec.Sext(lo.k, lo.w))
	_, w := bitvec.SliceWord(0, h, l)
	f, sh, m := x.fn(), uint(min(h, l)), bitvec.Mask(w)
	return texpr{typ: typ{w, false}, f: func(cs *cstate) uint64 { return f(cs) >> sh & m }}
}

func (c *compiler) compileBuiltin(call *ast.CallExpr) texpr {
	if call.Builtin == ast.BuiltinWaitStates {
		return c.fold(call)
	}
	var args [3]texpr
	konst := true
	for i, a := range call.Args {
		args[i] = c.compileExpr(a)
		konst = konst && args[i].f == nil
	}
	if konst {
		return c.fold(call)
	}
	x, y := args[0], args[1]
	a, w := x.fn(), x.w
	yi := intOf(y) // the builtin's integer parameter
	switch call.Builtin {
	case ast.BuiltinAbs:
		return texpr{typ: typ{w, true}, f: func(cs *cstate) uint64 { return bitvec.AbsWord(a(cs), w) }}
	case ast.BuiltinMin, ast.BuiltinMax:
		// The result is either operand, so it has a static type only
		// when both have the same one: then x wins when x>=y (max) or
		// x<=y (min).
		if x.typ != y.typ {
			return c.untypedExpr()
		}
		op, b := "<=", y.fn()
		if call.Builtin == ast.BuiltinMax {
			op = ">="
		}
		wins := binary(op, x, y).f
		return texpr{typ: x.typ, f: func(cs *cstate) uint64 {
			if wins(cs) != 0 {
				return a(cs)
			}
			return b(cs)
		}}
	case ast.BuiltinSaturate:
		return texpr{typ: typ{w, true}, f: func(cs *cstate) uint64 { return bitvec.SatSWord(a(cs), w, yi(cs)) }}
	case ast.BuiltinSignExtend:
		return texpr{typ: typ{64, true}, f: func(cs *cstate) uint64 { return bitvec.SignExtendWord(a(cs), 64, yi(cs)) }}
	case ast.BuiltinZeroExtend:
		return texpr{typ: typ{64, false}, f: func(cs *cstate) uint64 { return bitvec.ZeroExtendWord(a(cs), 64, yi(cs)) }}
	case ast.BuiltinAddSat, ast.BuiltinSubSat:
		b, yw, sub := y.fn(), y.w, call.Builtin == ast.BuiltinSubSat
		return texpr{typ: typ{max(w, yw), true}, f: func(cs *cstate) uint64 {
			if sub {
				return bitvec.SubSatWord(a(cs), w, b(cs), yw)
			}
			return bitvec.AddSatWord(a(cs), w, b(cs), yw)
		}}
	}
	return c.slice(x, y, args[2]) // ast.BuiltinBits
}

// --- compiled assignment targets ---------------------------------------------------

// cref is a compiled assignment target: the location read as an
// expression, and set, which stores a payload already at its width.
type cref struct {
	texpr
	set func(*cstate, uint64)

	// sext: a value stored here sign-extends from its own width (a signed
	// local, as convert does); elsewhere it zero-extends.
	sext bool
}

// store compiles the assignment of v to r, converted as convert and
// State.Write do.
func (r cref) store(v texpr) cstmt {
	v, set := v.to(r.w, r.sext), r.set
	if v.f == nil {
		k := v.k
		return func(cs *cstate) error { set(cs, k); return nil }
	}
	f := v.f
	return func(cs *cstate) error { set(cs, f(cs)); return nil }
}

func (c *compiler) compileRef(e ast.Expr) cref {
	switch ex := e.(type) {
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			slot, signed := ex.Index, ex.Type.Signed()
			return cref{
				texpr: c.compileExpr(ex),
				set:   func(cs *cstate, v uint64) { cs.locals[slot] = v },
				sext:  signed,
			}
		case ast.RefOperand:
			if child := c.operand(ex.Name); child != nil {
				r := child.compileRef(expressionOf(child.in))
				c.untyped = c.untyped || child.untyped
				return r
			}
			return cref{texpr: texpr{f: func(*cstate) uint64 { return 0 }}, set: func(*cstate, uint64) {}}
		default: // ast.RefResource
			return c.resource(c.x.M.Resources[ex.Index])
		}
	case *ast.IndexExpr:
		return c.compileIndexRef(ex)
	default: // *ast.BitsExpr
		bits := e.(*ast.BitsExpr)
		base, hi, lo := c.compileRef(bits.X), c.compileExpr(bits.Hi), c.compileExpr(bits.Lo)
		r := cref{texpr: c.slice(base.texpr, hi, lo)}
		if hi.f != nil || lo.f != nil { // untyped: the instance is interpreted
			return r
		}
		h, l := int(bitvec.Sext(hi.k, hi.w)), int(bitvec.Sext(lo.k, lo.w))
		get, set, w := base.f, base.set, base.w
		r.set = func(cs *cstate, v uint64) { set(cs, bitvec.InsertWord(get(cs), w, h, l, v)) }
		return r
	}
}

// resource compiles a scalar resource. Writes go through the state, which
// buffers latches, merges aliases and reports them to OnWrite.
func (c *compiler) resource(res *model.Resource) cref {
	r := cref{texpr: texpr{typ: typ{res.Width, res.Signed}}}
	if slot := res.Slot; res.IsAlias {
		r.f = func(cs *cstate) uint64 { return cs.x.S.Read(res).Uint() }
	} else {
		r.f = func(cs *cstate) uint64 { return cs.x.S.Scalars[slot].Uint() }
	}
	r.set = func(cs *cstate, v uint64) { cs.x.S.Write(res, bitvec.New(v, res.Width)) }
	return r
}

// intOf compiles an operand read as an int: its payload sign-extended
// from its width, as Value.Int does.
func intOf(e texpr) func(*cstate) int {
	if e.f == nil {
		k := int(bitvec.Sext(e.k, e.w))
		return func(*cstate) int { return k }
	}
	f, w := e.f, e.w
	return func(cs *cstate) int { return int(bitvec.Sext(f(cs), w)) }
}

// compileIndexRef compiles x[i]: a memory element, a bit of a scalar, or,
// on a banked memory, x[bank][i]. An element out of bounds reads 0, and a
// write to one is dropped. An address below the base wraps to at least
// the size, so one comparison checks both bounds.
func (c *compiler) compileIndexRef(ex *ast.IndexExpr) cref {
	x, bank, banked := ex.X, texpr{typ: typ{1, false}}, false
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		x, bank, banked = inner.X, c.compileExpr(inner.I), true
	}
	res, idx := c.x.M.Resources[x.(*ast.Ident).Index], c.compileExpr(ex.I)
	if !res.IsMemory() {
		bit := intOf(idx)
		return cref{
			texpr: texpr{typ: typ{1, false}, f: func(cs *cstate) uint64 { return cs.x.S.Read(res).Bit(bit(cs)) }},
			set: func(cs *cstate, v uint64) {
				cs.x.S.Write(res, cs.x.S.Read(res).SetBit(bit(cs), v))
			},
		}
	}
	slot, base, size, banks := res.Slot, res.Base, res.Size, uint64(1)
	write := func(s *model.State, _, a uint64, v bitvec.Value) { _ = s.WriteElem(res, a, v) }
	if banked {
		banks = uint64(res.Banks)
		write = func(s *model.State, b, a uint64, v bitvec.Value) { _ = s.WriteBanked(res, b, a, v) }
	}
	// at locates the element: its index in the state's array (-1 out of
	// bounds), its bank and its address.
	bf, af := bank.fn(), idx.fn()
	at := func(cs *cstate) (int, uint64, uint64) {
		if b, a := bf(cs), af(cs); b < banks && a-base < size {
			return int(b*size + a - base), b, a
		}
		return -1, 0, 0
	}
	if bank.f == nil && idx.f == nil { // a constant element: located once
		i, b, a := at(nil)
		at = func(*cstate) (int, uint64, uint64) { return i, b, a }
	}
	return cref{
		texpr: texpr{typ: typ{res.Width, res.Signed}, f: func(cs *cstate) uint64 {
			if i, _, _ := at(cs); i >= 0 {
				return cs.x.S.Arrays[slot][i].Uint()
			}
			return 0
		}},
		set: func(cs *cstate, v uint64) {
			if i, b, a := at(cs); i >= 0 {
				write(cs.x.S, b, a, bitvec.New(v, res.Width))
			}
		},
	}
}
