package behavior

import (
	"golisa/internal/ast"
	"golisa/internal/bitvec"
)

// --- compiled expressions -------------------------------------------------------

func constExpr(v val) cexpr {
	return func(*cstate) val { return v }
}

func (c *compiler) compileExpr(e ast.Expr) cexpr {
	switch ex := e.(type) {
	case *ast.NumLit:
		return constExpr(numLit(ex.Val))
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			slot, signed := ex.Index, ex.Type.Signed()
			return func(cs *cstate) val { return val{cs.locals[slot], signed} }
		case ast.RefLabel:
			// Decoded label fields are constants of the bound instance: fold them.
			return constExpr(val{c.in.Labels[ex.Name], false})
		case ast.RefOperand:
			if child := c.operand(ex.Name); child != nil {
				return child.compileExpr(expressionOf(child.in))
			}
			return constExpr(val{})
		default: // ast.RefResource
			res := c.x.M.Resources[ex.Index]
			return func(cs *cstate) val { return val{cs.x.S.Read(res), res.Signed} }
		}
	case *ast.IndexExpr:
		return c.compileIndexRef(ex).get
	case *ast.BitsExpr:
		x, hi, lo := c.compileExpr(ex.X), c.compileExpr(ex.Hi), c.compileExpr(ex.Lo)
		return func(cs *cstate) val {
			return val{x(cs).v.Slice(int(hi(cs).v.Int()), int(lo(cs).v.Int())), false}
		}
	case *ast.UnaryExpr:
		x, op := c.compileExpr(ex.X), unopFor(ex.Op)
		return func(cs *cstate) val { return op(x(cs)) }
	case *ast.BinaryExpr:
		l, r := c.compileExpr(ex.L), c.compileExpr(ex.R)
		if ex.Op == "&&" || ex.Op == "||" {
			and := ex.Op == "&&"
			return func(cs *cstate) val {
				lv := l(cs)
				if and != lv.bool() {
					return boolVal(lv.bool())
				}
				return boolVal(r(cs).bool())
			}
		}
		f := binopFor(ex.Op)
		return func(cs *cstate) val { return f(l(cs), r(cs)) }
	case *ast.CondExpr:
		cc, tt, ff := c.compileExpr(ex.C), c.compileExpr(ex.T), c.compileExpr(ex.F)
		return func(cs *cstate) val {
			if cc(cs).bool() {
				return tt(cs)
			}
			return ff(cs)
		}
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

func (c *compiler) compileBuiltin(call *ast.CallExpr) cexpr {
	if call.Builtin == ast.BuiltinWaitStates {
		return constExpr(waitStates(c.x.M, call))
	}
	args := make([]cexpr, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.compileExpr(a)
	}
	f := builtinFor(call.Builtin)
	return func(cs *cstate) val {
		var argv [3]val
		for i, a := range args {
			argv[i] = a(cs)
		}
		return f(argv)
	}
}

// --- compiled assignment targets ---------------------------------------------------

func (c *compiler) compileRef(e ast.Expr) cref {
	switch ex := e.(type) {
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			slot, typ := ex.Index, ex.Type
			signed := typ.Signed()
			return cref{
				get: func(cs *cstate) val { return val{cs.locals[slot], signed} },
				set: func(cs *cstate, v bitvec.Value) {
					cs.locals[slot] = convert(val{v, false}, typ)
				},
			}
		case ast.RefOperand:
			if child := c.operand(ex.Name); child != nil {
				return child.compileRef(expressionOf(child.in))
			}
			return cref{get: constExpr(val{}), set: func(*cstate, bitvec.Value) {}}
		default: // ast.RefResource
			res := c.x.M.Resources[ex.Index]
			return cref{
				get: func(cs *cstate) val { return val{cs.x.S.Read(res), res.Signed} },
				set: func(cs *cstate, v bitvec.Value) { cs.x.S.Write(res, v) },
			}
		}
	case *ast.IndexExpr:
		return c.compileIndexRef(ex)
	default: // *ast.BitsExpr
		bits := e.(*ast.BitsExpr)
		base, hi, lo := c.compileRef(bits.X), c.compileExpr(bits.Hi), c.compileExpr(bits.Lo)
		return cref{
			get: func(cs *cstate) val {
				return val{base.get(cs).v.Slice(int(hi(cs).v.Int()), int(lo(cs).v.Int())), false}
			},
			set: func(cs *cstate, v bitvec.Value) {
				cur := base.get(cs).v
				base.set(cs, cur.InsertSlice(int(hi(cs).v.Int()), int(lo(cs).v.Int()), v.Uint()))
			},
		}
	}
}

// compileIndexRef compiles x[i]: a memory element, a bit of a scalar, or,
// on a banked memory, x[bank][i].
func (c *compiler) compileIndexRef(ex *ast.IndexExpr) cref {
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		res := c.x.M.Resources[inner.X.(*ast.Ident).Index]
		bank, idx := c.compileExpr(inner.I), c.compileExpr(ex.I)
		return cref{
			get: func(cs *cstate) val {
				v, err := cs.x.S.ReadBanked(res, bank(cs).v.Uint(), idx(cs).v.Uint())
				if err != nil {
					v = bitvec.New(0, res.Width)
				}
				return val{v, res.Signed}
			},
			set: func(cs *cstate, v bitvec.Value) {
				_ = cs.x.S.WriteBanked(res, bank(cs).v.Uint(), idx(cs).v.Uint(), v)
			},
		}
	}
	res := c.x.M.Resources[ex.X.(*ast.Ident).Index]
	idx := c.compileExpr(ex.I)
	if !res.IsMemory() {
		return cref{
			get: func(cs *cstate) val {
				return val{bitvec.New(cs.x.S.Read(res).Bit(int(idx(cs).v.Int())), 1), false}
			},
			set: func(cs *cstate, v bitvec.Value) {
				cs.x.S.Write(res, cs.x.S.Read(res).SetBit(int(idx(cs).v.Int()), v.Uint()))
			},
		}
	}
	// Constant-index memory access folds the address (common after label
	// folding, e.g. A[index] with index decoded).
	if a, ok := c.constIndex(ex.I); ok {
		return cref{
			get: func(cs *cstate) val {
				v, err := cs.x.S.ReadElem(res, a)
				if err != nil {
					v = bitvec.New(0, res.Width)
				}
				return val{v, res.Signed}
			},
			set: func(cs *cstate, v bitvec.Value) { _ = cs.x.S.WriteElem(res, a, v) },
		}
	}
	return cref{
		get: func(cs *cstate) val {
			v, err := cs.x.S.ReadElem(res, idx(cs).v.Uint())
			if err != nil {
				v = bitvec.New(0, res.Width)
			}
			return val{v, res.Signed}
		},
		set: func(cs *cstate, v bitvec.Value) { _ = cs.x.S.WriteElem(res, idx(cs).v.Uint(), v) },
	}
}

// constIndex recognizes indices that are compile-time constants for the
// bound instance: numeric literals and decoded labels.
func (c *compiler) constIndex(e ast.Expr) (uint64, bool) {
	switch ex := e.(type) {
	case *ast.NumLit:
		return ex.Val, true
	case *ast.Ident:
		if ex.Kind == ast.RefLabel {
			return c.in.Labels[ex.Name].Uint(), true
		}
	}
	return 0, false
}
