package behavior

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// --- compiled expressions -------------------------------------------------------

func constExpr(v val) cexpr {
	return func(*cstate) (val, error) { return v, nil }
}

func (c *compiler) compileExpr(e ast.Expr) (cexpr, error) {
	switch ex := e.(type) {
	case *ast.NumLit:
		if ex.Val > 0x7fffffff {
			return constExpr(val{bitvec.New(ex.Val, 64), true}), nil
		}
		return constExpr(val{bitvec.New(ex.Val, 32), true}), nil
	case *ast.StrLit:
		return nil, fmt.Errorf("%s: string literal outside print()", ex.Pos)
	case *ast.Ident:
		return c.compileIdent(ex)
	case *ast.IndexExpr, *ast.BitsExpr:
		r, err := c.compileRef(e)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) { return r.get(cs), nil }, nil
	case *ast.UnaryExpr:
		x, err := c.compileExpr(ex.X)
		if err != nil {
			return nil, err
		}
		op, err := unopFor(ex.Op)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			v, err := x(cs)
			if err != nil {
				return val{}, err
			}
			return op(v), nil
		}, nil
	case *ast.BinaryExpr:
		l, err := c.compileExpr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(ex.R)
		if err != nil {
			return nil, err
		}
		op := ex.Op
		if op == "&&" || op == "||" {
			and := op == "&&"
			return func(cs *cstate) (val, error) {
				lv, err := l(cs)
				if err != nil {
					return val{}, err
				}
				if and && !lv.bool() || !and && lv.bool() {
					return val{bitvec.FromBool(lv.bool()), false}, nil
				}
				rv, err := r(cs)
				if err != nil {
					return val{}, err
				}
				return val{bitvec.FromBool(rv.bool()), false}, nil
			}, nil
		}
		f, err := binopFor(op)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			lv, err := l(cs)
			if err != nil {
				return val{}, err
			}
			rv, err := r(cs)
			if err != nil {
				return val{}, err
			}
			return f(lv, rv), nil
		}, nil
	case *ast.CondExpr:
		cc, err := c.compileExpr(ex.C)
		if err != nil {
			return nil, err
		}
		tt, err := c.compileExpr(ex.T)
		if err != nil {
			return nil, err
		}
		ff, err := c.compileExpr(ex.F)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			cv, err := cc(cs)
			if err != nil {
				return val{}, err
			}
			if cv.bool() {
				return tt(cs)
			}
			return ff(cs)
		}, nil
	case *ast.CallExpr:
		return c.compileCall(ex)
	default:
		return nil, fmt.Errorf("unhandled expression %T", e)
	}
}

func (c *compiler) compileIdent(id *ast.Ident) (cexpr, error) {
	if l, ok := c.lookup(id.Name); ok {
		slot, signed := l.slot, l.typ.Signed()
		return func(cs *cstate) (val, error) {
			return val{cs.locals[slot], signed}, nil
		}, nil
	}
	// Decoded label fields are constants of the bound instance: fold them.
	if lv, ok := c.in.Labels[id.Name]; ok {
		return constExpr(val{lv, false}), nil
	}
	if child, ok := c.in.Bindings[id.Name]; ok {
		r, err := c.compileInstanceExpr(child)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) { return r.get(cs), nil }, nil
	}
	if r := c.x.M.Resource(id.Name); r != nil {
		if r.IsMemory() {
			return nil, fmt.Errorf("%s: memory resource %s needs an index", id.Pos, id.Name)
		}
		res, signed := r, r.Signed
		return func(cs *cstate) (val, error) {
			return val{cs.x.S.Read(res), signed}, nil
		}, nil
	}
	return nil, fmt.Errorf("%s: unknown identifier %s", id.Pos, id.Name)
}

// compileInstanceExpr compiles a bound child's EXPRESSION section in the
// child's own compile context (labels folded as constants).
func (c *compiler) compileInstanceExpr(in *model.Instance) (cref, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return cref{}, err
		}
	}
	if in.Variant.Expression == nil {
		return cref{}, fmt.Errorf("operation %s has no EXPRESSION section", in.Op.Name)
	}
	child := &compiler{x: c.x, in: in}
	child.push()
	return child.compileRef(in.Variant.Expression.X)
}

// --- compiled lvalues ------------------------------------------------------------

func (c *compiler) compileRef(e ast.Expr) (cref, error) {
	switch ex := e.(type) {
	case *ast.Ident:
		if l, ok := c.lookup(ex.Name); ok {
			slot, typ := l.slot, l.typ
			signed := typ.Signed()
			return cref{
				get: func(cs *cstate) val { return val{cs.locals[slot], signed} },
				set: func(cs *cstate, v bitvec.Value) {
					cs.locals[slot] = convert(val{v, false}, typ)
				},
			}, nil
		}
		if _, ok := c.in.Labels[ex.Name]; ok {
			return cref{}, fmt.Errorf("%s: label %s is not assignable", ex.Pos, ex.Name)
		}
		if child, ok := c.in.Bindings[ex.Name]; ok {
			return c.compileInstanceExpr(child)
		}
		if r := c.x.M.Resource(ex.Name); r != nil {
			if r.IsMemory() {
				return cref{}, fmt.Errorf("%s: memory resource %s needs an index", ex.Pos, ex.Name)
			}
			res, signed := r, r.Signed
			return cref{
				get: func(cs *cstate) val { return val{cs.x.S.Read(res), signed} },
				set: func(cs *cstate, v bitvec.Value) { cs.x.S.Write(res, v) },
			}, nil
		}
		return cref{}, fmt.Errorf("%s: unknown identifier %s", ex.Pos, ex.Name)

	case *ast.IndexExpr:
		return c.compileIndexRef(ex)

	case *ast.BitsExpr:
		base, err := c.compileRef(ex.X)
		if err != nil {
			return cref{}, err
		}
		hi, err := c.compileExpr(ex.Hi)
		if err != nil {
			return cref{}, err
		}
		lo, err := c.compileExpr(ex.Lo)
		if err != nil {
			return cref{}, err
		}
		bounds := func(cs *cstate) (int, int, error) {
			hv, err := hi(cs)
			if err != nil {
				return 0, 0, err
			}
			lv, err := lo(cs)
			if err != nil {
				return 0, 0, err
			}
			return int(hv.v.Int()), int(lv.v.Int()), nil
		}
		return cref{
			get: func(cs *cstate) val {
				h, l, err := bounds(cs)
				if err != nil {
					return val{}
				}
				return val{base.get(cs).v.Slice(h, l), false}
			},
			set: func(cs *cstate, v bitvec.Value) {
				h, l, err := bounds(cs)
				if err != nil {
					return
				}
				cur := base.get(cs).v
				base.set(cs, cur.InsertSlice(h, l, v.Uint()))
			},
		}, nil

	default:
		return cref{}, fmt.Errorf("expression %T is not assignable", e)
	}
}

func (c *compiler) compileIndexRef(ex *ast.IndexExpr) (cref, error) {
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		if rid, ok := inner.X.(*ast.Ident); ok {
			if r := c.x.M.Resource(rid.Name); r != nil && r.Banks > 0 {
				bank, err := c.compileExpr(inner.I)
				if err != nil {
					return cref{}, err
				}
				idx, err := c.compileExpr(ex.I)
				if err != nil {
					return cref{}, err
				}
				res, signed := r, r.Signed
				addr := func(cs *cstate) (uint64, uint64, bool) {
					bv, err := bank(cs)
					if err != nil {
						return 0, 0, false
					}
					iv, err := idx(cs)
					if err != nil {
						return 0, 0, false
					}
					return bv.v.Uint(), iv.v.Uint(), true
				}
				return cref{
					get: func(cs *cstate) val {
						b, i, ok := addr(cs)
						if !ok {
							return val{bitvec.New(0, res.Width), signed}
						}
						v, err := cs.x.S.ReadBanked(res, b, i)
						if err != nil {
							v = bitvec.New(0, res.Width)
						}
						return val{v, signed}
					},
					set: func(cs *cstate, v bitvec.Value) {
						if b, i, ok := addr(cs); ok {
							_ = cs.x.S.WriteBanked(res, b, i, v)
						}
					},
				}, nil
			}
		}
	}
	rid, ok := ex.X.(*ast.Ident)
	if !ok {
		return cref{}, fmt.Errorf("%s: cannot index a non-resource expression", ex.Pos)
	}
	r := c.x.M.Resource(rid.Name)
	if r == nil {
		return cref{}, fmt.Errorf("%s: unknown memory resource %s", ex.Pos, rid.Name)
	}
	idx, err := c.compileExpr(ex.I)
	if err != nil {
		return cref{}, err
	}
	res, signed := r, r.Signed
	if !r.IsMemory() {
		return cref{
			get: func(cs *cstate) val {
				iv, err := idx(cs)
				if err != nil {
					return val{}
				}
				return val{bitvec.New(cs.x.S.Read(res).Bit(int(iv.v.Int())), 1), false}
			},
			set: func(cs *cstate, v bitvec.Value) {
				iv, err := idx(cs)
				if err != nil {
					return
				}
				cs.x.S.Write(res, cs.x.S.Read(res).SetBit(int(iv.v.Int()), v.Uint()))
			},
		}, nil
	}
	// Constant-index memory access folds the address (common after label
	// folding, e.g. A[index] with index decoded).
	if lit, ok := constIndexValue(c, ex.I); ok {
		a := lit
		return cref{
			get: func(cs *cstate) val {
				v, err := cs.x.S.ReadElem(res, a)
				if err != nil {
					v = bitvec.New(0, res.Width)
				}
				return val{v, signed}
			},
			set: func(cs *cstate, v bitvec.Value) {
				_ = cs.x.S.WriteElem(res, a, v)
			},
		}, nil
	}
	return cref{
		get: func(cs *cstate) val {
			iv, err := idx(cs)
			if err != nil {
				return val{bitvec.New(0, res.Width), signed}
			}
			v, err := cs.x.S.ReadElem(res, iv.v.Uint())
			if err != nil {
				v = bitvec.New(0, res.Width)
			}
			return val{v, signed}
		},
		set: func(cs *cstate, v bitvec.Value) {
			iv, err := idx(cs)
			if err != nil {
				return
			}
			_ = cs.x.S.WriteElem(res, iv.v.Uint(), v)
		},
	}, nil
}

// constIndexValue recognizes indices that are compile-time constants for the
// bound instance: numeric literals and decoded labels.
func constIndexValue(c *compiler, e ast.Expr) (uint64, bool) {
	switch ex := e.(type) {
	case *ast.NumLit:
		return ex.Val, true
	case *ast.Ident:
		if _, isLocal := c.lookup(ex.Name); isLocal {
			return 0, false
		}
		if lv, ok := c.in.Labels[ex.Name]; ok {
			return lv.Uint(), true
		}
	}
	return 0, false
}

// --- compiled calls ---------------------------------------------------------------

func (c *compiler) compileCall(call *ast.CallExpr) (cexpr, error) {
	if strings.Contains(call.Name, ".") {
		return c.compilePipeCall(call)
	}
	switch call.Name {
	case "abs", "min", "max", "saturate", "sign_extend", "zero_extend",
		"addsat", "subsat", "bits", "print", "wait_states":
		return c.compileBuiltin(call)
	}
	if child, ok := c.in.Bindings[call.Name]; ok {
		if len(call.Args) != 0 {
			return nil, fmt.Errorf("%s: operation call %s takes no arguments", call.Pos, call.Name)
		}
		return func(cs *cstate) (val, error) { return val{}, cs.x.callInstance(child) }, nil
	}
	if op, ok := c.x.M.Ops[call.Name]; ok {
		if len(call.Args) != 0 {
			return nil, fmt.Errorf("%s: operation call %s takes no arguments", call.Pos, call.Name)
		}
		return func(cs *cstate) (val, error) { return val{}, cs.x.callOperation(op) }, nil
	}
	return nil, fmt.Errorf("%s: unknown function or operation %s", call.Pos, call.Name)
}

func (c *compiler) compilePipeCall(call *ast.CallExpr) (cexpr, error) {
	parts := strings.Split(call.Name, ".")
	p := c.x.M.Pipeline(parts[0])
	if p == nil {
		return nil, fmt.Errorf("%s: unknown pipeline %s", call.Pos, parts[0])
	}
	stage := -1
	op := parts[len(parts)-1]
	if len(parts) == 3 {
		stage = p.StageIndex(parts[1])
		if stage < 0 {
			return nil, fmt.Errorf("%s: unknown stage %s.%s", call.Pos, parts[0], parts[1])
		}
	} else if len(parts) != 2 {
		return nil, fmt.Errorf("%s: malformed pipeline call %s", call.Pos, call.Name)
	}
	o, ok := pipeline.ParseOp(op)
	if !ok {
		return nil, fmt.Errorf("%s: unknown pipeline operation %s", call.Pos, op)
	}
	pd, st := p, stage
	return func(cs *cstate) (val, error) {
		if cs.x.Ctx == nil {
			return val{}, fmt.Errorf("pipeline operation %s outside simulation context", call.Name)
		}
		return val{}, cs.x.Ctx.PipeOp(pd, st, o)
	}, nil
}

func (c *compiler) compileBuiltin(call *ast.CallExpr) (cexpr, error) {
	name := call.Name
	need := func(n int) error {
		if len(call.Args) != n {
			return fmt.Errorf("%s: %s expects %d arguments, got %d", call.Pos, name, n, len(call.Args))
		}
		return nil
	}
	if name == "wait_states" {
		if err := need(1); err != nil {
			return nil, err
		}
		id, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: wait_states expects a resource name", call.Pos)
		}
		r := c.x.M.Resource(id.Name)
		if r == nil {
			return nil, fmt.Errorf("%s: unknown resource %s", call.Pos, id.Name)
		}
		return constExpr(val{bitvec.New(uint64(r.Wait), 32), false}), nil
	}
	// print keeps string literals positionally.
	args := make([]cexpr, len(call.Args))
	strs := make([]string, len(call.Args))
	isStr := make([]bool, len(call.Args))
	for i, a := range call.Args {
		if s, ok := a.(*ast.StrLit); ok && name == "print" {
			strs[i], isStr[i] = s.Val, true
			continue
		}
		ce, err := c.compileExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = ce
	}
	// Non-print builtins take at most three arguments (need checks the
	// count before a closure is built), so they evaluate into an array.
	evalArgs := func(cs *cstate) (argv [3]val, err error) {
		for i, a := range args {
			if argv[i], err = a(cs); err != nil {
				return argv, err
			}
		}
		return argv, nil
	}
	switch name {
	case "print":
		return func(cs *cstate) (val, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				if isStr[i] {
					parts[i] = strs[i]
					continue
				}
				v, err := a(cs)
				if err != nil {
					return val{}, err
				}
				if v.signed {
					parts[i] = fmt.Sprintf("%d", v.v.Int())
				} else {
					parts[i] = fmt.Sprintf("%d", v.v.Uint())
				}
			}
			if cs.x.Ctx != nil {
				cs.x.Ctx.Print(strings.Join(parts, " "))
			}
			return val{}, nil
		}, nil
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.Abs(argv[0].v), true}, nil
		}, nil
	case "min", "max":
		if err := need(2); err != nil {
			return nil, err
		}
		wantMax := name == "max"
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			a, b := argv[0], argv[1]
			cmp := bitvec.CmpS(a.v, b.v)
			if !a.signed && !b.signed {
				cmp = bitvec.CmpU(a.v, b.v)
			}
			pickA := cmp <= 0
			if wantMax {
				pickA = cmp >= 0
			}
			if pickA {
				return a, nil
			}
			return b, nil
		}, nil
	case "saturate":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.SatS(argv[0].v, int(argv[1].v.Int())), true}, nil
		}, nil
	case "sign_extend":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.SignExtend(argv[0].v.Resize(64), int(argv[1].v.Int())), true}, nil
		}, nil
	case "zero_extend":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.ZeroExtend(argv[0].v.Resize(64), int(argv[1].v.Int())), false}, nil
		}, nil
	case "addsat":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.AddSat(argv[0].v, argv[1].v), true}, nil
		}, nil
	case "subsat":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.SubSat(argv[0].v, argv[1].v), true}, nil
		}, nil
	case "bits":
		if err := need(3); err != nil {
			return nil, err
		}
		return func(cs *cstate) (val, error) {
			argv, err := evalArgs(cs)
			if err != nil {
				return val{}, err
			}
			return val{argv[0].v.Slice(int(argv[1].v.Int()), int(argv[2].v.Int())), false}, nil
		}, nil
	}
	return nil, fmt.Errorf("%s: unknown builtin %s", call.Pos, name)
}
