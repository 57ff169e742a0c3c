package behavior

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// ref is a resolved lvalue: a getter/setter pair over a storage location.
type ref struct {
	get func() val
	set func(bitvec.Value)
}

// convert coerces a value into a declared type.
func convert(v val, t ast.TypeSpec) bitvec.Value {
	if t.Signed() {
		return v.v.SignResize(t.Width)
	}
	return v.v.Resize(t.Width)
}

// eval evaluates an rvalue expression in frame f.
func (x *Exec) eval(f *frame, e ast.Expr) (val, error) {
	switch ex := e.(type) {
	case *ast.NumLit:
		if ex.Val > 0x7fffffff {
			return val{bitvec.New(ex.Val, 64), true}, nil
		}
		return val{bitvec.New(ex.Val, 32), true}, nil
	case *ast.StrLit:
		return val{}, fmt.Errorf("%s: string literal outside print()", ex.Pos)
	case *ast.Ident:
		return x.evalIdent(f, ex)
	case *ast.IndexExpr, *ast.BitsExpr:
		r, err := x.lvalue(f, e)
		if err != nil {
			return val{}, err
		}
		return r.get(), nil
	case *ast.UnaryExpr:
		v, err := x.eval(f, ex.X)
		if err != nil {
			return val{}, err
		}
		return unop(ex.Op, v)
	case *ast.BinaryExpr:
		// Short-circuit && and ||.
		if ex.Op == "&&" || ex.Op == "||" {
			l, err := x.eval(f, ex.L)
			if err != nil {
				return val{}, err
			}
			if (ex.Op == "&&" && !l.bool()) || (ex.Op == "||" && l.bool()) {
				return val{bitvec.FromBool(l.bool()), false}, nil
			}
			r, err := x.eval(f, ex.R)
			if err != nil {
				return val{}, err
			}
			return val{bitvec.FromBool(r.bool()), false}, nil
		}
		l, err := x.eval(f, ex.L)
		if err != nil {
			return val{}, err
		}
		r, err := x.eval(f, ex.R)
		if err != nil {
			return val{}, err
		}
		return binop(ex.Op, l, r)
	case *ast.CondExpr:
		c, err := x.eval(f, ex.C)
		if err != nil {
			return val{}, err
		}
		if c.bool() {
			return x.eval(f, ex.T)
		}
		return x.eval(f, ex.F)
	case *ast.CallExpr:
		return x.evalCall(f, ex)
	default:
		return val{}, fmt.Errorf("unhandled expression %T", e)
	}
}

// evalForEffect evaluates an expression statement. A bare identifier naming
// a binding or operation executes that operation's behavior (paper Example 3
// writes BEHAVIOR { Instruction } to dispatch the decoded instruction).
func (x *Exec) evalForEffect(f *frame, e ast.Expr) (val, error) {
	if id, ok := e.(*ast.Ident); ok {
		if f.lookup(id.Name) == nil {
			if _, isLabel := f.inst.Labels[id.Name]; !isLabel {
				if child, ok := f.inst.Bindings[id.Name]; ok {
					return val{}, x.callInstance(child)
				}
				if op, ok := x.M.Ops[id.Name]; ok {
					return val{}, x.callOperation(op)
				}
			}
		}
	}
	return x.eval(f, e)
}

func (x *Exec) evalIdent(f *frame, id *ast.Ident) (val, error) {
	if l := f.lookup(id.Name); l != nil {
		return val{l.v, l.typ.Signed()}, nil
	}
	if lv, ok := f.inst.Labels[id.Name]; ok {
		return val{lv, false}, nil
	}
	if child, ok := f.inst.Bindings[id.Name]; ok {
		return x.evalInstanceExpr(child)
	}
	if r := x.M.Resource(id.Name); r != nil {
		if r.IsMemory() {
			return val{}, fmt.Errorf("%s: memory resource %s needs an index", id.Pos, id.Name)
		}
		return val{x.S.Read(r), r.Signed}, nil
	}
	return val{}, fmt.Errorf("%s: unknown identifier %s", id.Pos, id.Name)
}

// evalInstanceExpr evaluates the EXPRESSION section of a bound child
// instance as an rvalue (the nml "mode" read path).
func (x *Exec) evalInstanceExpr(in *model.Instance) (val, error) {
	r, err := x.instanceExprRef(in)
	if err != nil {
		return val{}, err
	}
	return r.get(), nil
}

func (x *Exec) instanceExprRef(in *model.Instance) (ref, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return ref{}, err
		}
	}
	v := in.Variant
	if v.Expression == nil {
		return ref{}, fmt.Errorf("operation %s has no EXPRESSION section", in.Op.Name)
	}
	child := newFrame(in)
	return x.lvalue(child, v.Expression.X)
}

// lvalue resolves an assignable location.
func (x *Exec) lvalue(f *frame, e ast.Expr) (ref, error) {
	switch ex := e.(type) {
	case *ast.Ident:
		if l := f.lookup(ex.Name); l != nil {
			return ref{
				get: func() val { return val{l.v, l.typ.Signed()} },
				set: func(v bitvec.Value) { l.v = convert(val{v, false}, l.typ) },
			}, nil
		}
		if lv, ok := f.inst.Labels[ex.Name]; ok {
			// Labels are read-only operand fields.
			return ref{
				get: func() val { return val{lv, false} },
				set: func(bitvec.Value) {},
			}, fmt.Errorf("%s: label %s is not assignable", ex.Pos, ex.Name)
		}
		if child, ok := f.inst.Bindings[ex.Name]; ok {
			return x.instanceExprRef(child)
		}
		if r := x.M.Resource(ex.Name); r != nil {
			if r.IsMemory() {
				return ref{}, fmt.Errorf("%s: memory resource %s needs an index", ex.Pos, ex.Name)
			}
			return ref{
				get: func() val { return val{x.S.Read(r), r.Signed} },
				set: func(v bitvec.Value) { x.S.Write(r, v) },
			}, nil
		}
		return ref{}, fmt.Errorf("%s: unknown identifier %s", ex.Pos, ex.Name)

	case *ast.IndexExpr:
		return x.indexRef(f, ex)

	case *ast.BitsExpr:
		base, err := x.lvalue(f, ex.X)
		if err != nil {
			return ref{}, err
		}
		hiV, err := x.eval(f, ex.Hi)
		if err != nil {
			return ref{}, err
		}
		loV, err := x.eval(f, ex.Lo)
		if err != nil {
			return ref{}, err
		}
		hi, lo := int(hiV.v.Int()), int(loV.v.Int())
		return ref{
			get: func() val { return val{base.get().v.Slice(hi, lo), false} },
			set: func(v bitvec.Value) {
				cur := base.get().v
				base.set(cur.InsertSlice(hi, lo, v.Uint()))
			},
		}, nil

	default:
		return ref{}, fmt.Errorf("expression %T is not assignable", e)
	}
}

// indexRef resolves x[i] (and banked x[b][i]) element references.
func (x *Exec) indexRef(f *frame, ex *ast.IndexExpr) (ref, error) {
	// Banked access: inner expression is itself an index over a banked
	// memory resource.
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		if rid, ok := inner.X.(*ast.Ident); ok {
			if r := x.M.Resource(rid.Name); r != nil && r.Banks > 0 {
				bankV, err := x.eval(f, inner.I)
				if err != nil {
					return ref{}, err
				}
				idxV, err := x.eval(f, ex.I)
				if err != nil {
					return ref{}, err
				}
				bank, addr := bankV.v.Uint(), idxV.v.Uint()
				return ref{
					get: func() val {
						v, err := x.S.ReadBanked(r, bank, addr)
						if err != nil {
							v = bitvec.New(0, r.Width)
						}
						return val{v, r.Signed}
					},
					set: func(v bitvec.Value) {
						_ = x.S.WriteBanked(r, bank, addr, v)
					},
				}, nil
			}
		}
	}
	rid, ok := ex.X.(*ast.Ident)
	if !ok {
		return ref{}, fmt.Errorf("%s: cannot index a non-resource expression", ex.Pos)
	}
	r := x.M.Resource(rid.Name)
	if r == nil {
		// Indexing a binding: child EXPRESSION must itself be indexable —
		// not supported; point the modeler at the resource.
		return ref{}, fmt.Errorf("%s: unknown memory resource %s", ex.Pos, rid.Name)
	}
	if !r.IsMemory() {
		// Scalar indexed: treat as bit select r[i].
		iV, err := x.eval(f, ex.I)
		if err != nil {
			return ref{}, err
		}
		bit := int(iV.v.Int())
		return ref{
			get: func() val { return val{bitvec.New(x.S.Read(r).Bit(bit), 1), false} },
			set: func(v bitvec.Value) {
				x.S.Write(r, x.S.Read(r).SetBit(bit, v.Uint()))
			},
		}, nil
	}
	iV, err := x.eval(f, ex.I)
	if err != nil {
		return ref{}, err
	}
	addr := iV.v.Uint()
	return ref{
		get: func() val {
			v, err := x.S.ReadElem(r, addr)
			if err != nil {
				v = bitvec.New(0, r.Width)
			}
			return val{v, r.Signed}
		},
		set: func(v bitvec.Value) {
			_ = x.S.WriteElem(r, addr, v)
		},
	}, nil
}

// callOperation executes an operation without operands (a plain behavior
// call to a helper operation). Under a simulator context the call goes
// through the full execute path (decode, behavior, activation).
func (x *Exec) callOperation(op *model.Operation) error {
	if x.Ctx != nil {
		return x.Ctx.CallOp(op)
	}
	in := model.NewInstance(op)
	return x.runBehavior(in)
}

// callInstance executes a bound child instance.
func (x *Exec) callInstance(in *model.Instance) error {
	if x.Ctx != nil {
		return x.Ctx.CallInstance(in)
	}
	return x.runBehavior(in)
}

// evalCall dispatches builtins, pipeline operations and operation calls.
func (x *Exec) evalCall(f *frame, c *ast.CallExpr) (val, error) {
	if strings.Contains(c.Name, ".") {
		return x.pipeCall(c)
	}
	switch c.Name {
	case "abs", "min", "max", "saturate", "sign_extend", "zero_extend",
		"addsat", "subsat", "bits", "print", "wait_states":
		return x.builtin(f, c)
	}
	// Binding call: Group() executes the bound member's behavior.
	if child, ok := f.inst.Bindings[c.Name]; ok {
		if len(c.Args) != 0 {
			return val{}, fmt.Errorf("%s: operation call %s takes no arguments", c.Pos, c.Name)
		}
		return val{}, x.callInstance(child)
	}
	if op, ok := x.M.Ops[c.Name]; ok {
		if len(c.Args) != 0 {
			return val{}, fmt.Errorf("%s: operation call %s takes no arguments", c.Pos, c.Name)
		}
		return val{}, x.callOperation(op)
	}
	return val{}, fmt.Errorf("%s: unknown function or operation %s", c.Pos, c.Name)
}

func (x *Exec) pipeCall(c *ast.CallExpr) (val, error) {
	parts := strings.Split(c.Name, ".")
	p := x.M.Pipeline(parts[0])
	if p == nil {
		return val{}, fmt.Errorf("%s: unknown pipeline %s", c.Pos, parts[0])
	}
	stage := -1
	op := parts[len(parts)-1]
	if len(parts) == 3 {
		stage = p.StageIndex(parts[1])
		if stage < 0 {
			return val{}, fmt.Errorf("%s: unknown stage %s.%s", c.Pos, parts[0], parts[1])
		}
	} else if len(parts) != 2 {
		return val{}, fmt.Errorf("%s: malformed pipeline call %s", c.Pos, c.Name)
	}
	o, ok := pipeline.ParseOp(op)
	if !ok {
		return val{}, fmt.Errorf("%s: unknown pipeline operation %s", c.Pos, op)
	}
	if x.Ctx == nil {
		return val{}, fmt.Errorf("%s: pipeline operation %s outside simulation context", c.Pos, c.Name)
	}
	return val{}, x.Ctx.PipeOp(p, stage, o)
}

func (x *Exec) builtin(f *frame, c *ast.CallExpr) (val, error) {
	if c.Name == "wait_states" {
		if len(c.Args) != 1 {
			return val{}, fmt.Errorf("%s: wait_states expects 1 argument", c.Pos)
		}
		id, ok := c.Args[0].(*ast.Ident)
		if !ok {
			return val{}, fmt.Errorf("%s: wait_states expects a resource name", c.Pos)
		}
		r := x.M.Resource(id.Name)
		if r == nil {
			return val{}, fmt.Errorf("%s: unknown resource %s", c.Pos, id.Name)
		}
		return val{bitvec.New(uint64(r.Wait), 32), false}, nil
	}
	argv := make([]val, len(c.Args))
	for i, a := range c.Args {
		if _, isStr := a.(*ast.StrLit); isStr && c.Name == "print" {
			continue
		}
		v, err := x.eval(f, a)
		if err != nil {
			return val{}, err
		}
		argv[i] = v
	}
	need := func(n int) error {
		if len(c.Args) != n {
			return fmt.Errorf("%s: %s expects %d arguments, got %d", c.Pos, c.Name, n, len(c.Args))
		}
		return nil
	}
	switch c.Name {
	case "abs":
		if err := need(1); err != nil {
			return val{}, err
		}
		return val{bitvec.Abs(argv[0].v), true}, nil
	case "min", "max":
		if err := need(2); err != nil {
			return val{}, err
		}
		a, b := argv[0], argv[1]
		cmp := bitvec.CmpS(a.v, b.v)
		if !a.signed && !b.signed {
			cmp = bitvec.CmpU(a.v, b.v)
		}
		pickA := cmp <= 0
		if c.Name == "max" {
			pickA = cmp >= 0
		}
		if pickA {
			return a, nil
		}
		return b, nil
	case "saturate":
		if err := need(2); err != nil {
			return val{}, err
		}
		return val{bitvec.SatS(argv[0].v, int(argv[1].v.Int())), true}, nil
	case "sign_extend":
		if err := need(2); err != nil {
			return val{}, err
		}
		wide := argv[0].v.Resize(64)
		return val{bitvec.SignExtend(wide, int(argv[1].v.Int())), true}, nil
	case "zero_extend":
		if err := need(2); err != nil {
			return val{}, err
		}
		wide := argv[0].v.Resize(64)
		return val{bitvec.ZeroExtend(wide, int(argv[1].v.Int())), false}, nil
	case "addsat":
		if err := need(2); err != nil {
			return val{}, err
		}
		return val{bitvec.AddSat(argv[0].v, argv[1].v), true}, nil
	case "subsat":
		if err := need(2); err != nil {
			return val{}, err
		}
		return val{bitvec.SubSat(argv[0].v, argv[1].v), true}, nil
	case "bits":
		if err := need(3); err != nil {
			return val{}, err
		}
		return val{argv[0].v.Slice(int(argv[1].v.Int()), int(argv[2].v.Int())), false}, nil
	case "print":
		if x.Ctx != nil {
			x.Ctx.Print(x.formatPrint(f, c, argv))
		}
		return val{}, nil
	}
	return val{}, fmt.Errorf("%s: unknown builtin %s", c.Pos, c.Name)
}

// formatPrint renders print() arguments: string literals verbatim, values
// as decimal, space-separated.
func (x *Exec) formatPrint(f *frame, c *ast.CallExpr, argv []val) string {
	parts := make([]string, 0, len(c.Args))
	for i, a := range c.Args {
		if s, ok := a.(*ast.StrLit); ok {
			parts = append(parts, s.Val)
			continue
		}
		v := argv[i]
		if v.signed {
			parts = append(parts, fmt.Sprintf("%d", v.v.Int()))
		} else {
			parts = append(parts, fmt.Sprintf("%d", v.v.Uint()))
		}
	}
	return strings.Join(parts, " ")
}

// --- operators ----------------------------------------------------------------

// unop applies a unary operator; compiled code resolves it once with unopFor.
func unop(op string, v val) (val, error) {
	f, err := unopFor(op)
	if err != nil {
		return val{}, err
	}
	return f(v), nil
}

func unopFor(op string) (func(val) val, error) {
	switch op {
	case "-":
		return func(v val) val { return val{bitvec.Neg(v.v), true} }, nil
	case "+":
		return func(v val) val { return v }, nil
	case "!":
		return func(v val) val { return val{bitvec.FromBool(!v.bool()), false} }, nil
	case "~":
		return func(v val) val { return val{bitvec.Not(v.v), v.signed} }, nil
	}
	return nil, fmt.Errorf("unknown unary operator %s", op)
}

// binop applies a binary operator; compiled code resolves it once with
// binopFor.
func binop(op string, l, r val) (val, error) {
	f, err := binopFor(op)
	if err != nil {
		return val{}, err
	}
	return f(l, r), nil
}

// widen brings both operands to the wider width, sign-extending signed
// ones (arithmetic widening).
func widen(l, r val) (bitvec.Value, bitvec.Value, int) {
	w := l.v.Width()
	if r.v.Width() > w {
		w = r.v.Width()
	}
	a, b := l.v, r.v
	if l.signed {
		a = a.SignResize(w)
	} else {
		a = a.Resize(w)
	}
	if r.signed {
		b = b.SignResize(w)
	} else {
		b = b.Resize(w)
	}
	return a, b, w
}

// compare orders two operands, signed when either one is.
func compare(l, r val) int {
	if l.signed || r.signed {
		a, b, _ := widen(l, r)
		return bitvec.CmpS(a, b)
	}
	return bitvec.CmpU(l.v, r.v)
}

func boolVal(b bool) val { return val{bitvec.FromBool(b), false} }

func binopFor(op string) (func(l, r val) val, error) {
	switch op {
	case "+":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Add(a, b), l.signed || r.signed} }, nil
	case "-":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Sub(a, b), l.signed || r.signed} }, nil
	case "*":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Mul(a, b), l.signed || r.signed} }, nil
	case "/":
		return func(l, r val) val {
			a, b, w := widen(l, r)
			if l.signed || r.signed {
				return val{bitvec.DivS(a, b), true}
			}
			if b.IsZero() {
				return val{bitvec.New(bitvec.Mask(w), w), false}
			}
			return val{bitvec.New(a.Uint()/b.Uint(), w), false}
		}, nil
	case "%":
		return func(l, r val) val {
			a, b, w := widen(l, r)
			if l.signed || r.signed {
				return val{bitvec.RemS(a, b), true}
			}
			if b.IsZero() {
				return val{bitvec.New(0, w), false}
			}
			return val{bitvec.New(a.Uint()%b.Uint(), w), false}
		}, nil
	case "&":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.And(a, b), l.signed || r.signed} }, nil
	case "|":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Or(a, b), l.signed || r.signed} }, nil
	case "^":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Xor(a, b), l.signed || r.signed} }, nil
	case "<<":
		return func(l, r val) val { return val{bitvec.Shl(l.v, uint(r.v.Uint()&63)), l.signed} }, nil
	case ">>":
		return func(l, r val) val {
			if l.signed {
				return val{bitvec.ShrS(l.v, uint(r.v.Uint()&63)), true}
			}
			return val{bitvec.ShrU(l.v, uint(r.v.Uint()&63)), false}
		}, nil
	case "==":
		return func(l, r val) val { a, b, _ := widen(l, r); return boolVal(a.Uint() == b.Uint()) }, nil
	case "!=":
		return func(l, r val) val { a, b, _ := widen(l, r); return boolVal(a.Uint() != b.Uint()) }, nil
	case "<":
		return func(l, r val) val { return boolVal(compare(l, r) < 0) }, nil
	case "<=":
		return func(l, r val) val { return boolVal(compare(l, r) <= 0) }, nil
	case ">":
		return func(l, r val) val { return boolVal(compare(l, r) > 0) }, nil
	case ">=":
		return func(l, r val) val { return boolVal(compare(l, r) >= 0) }, nil
	case "&&":
		return func(l, r val) val { return boolVal(l.bool() && r.bool()) }, nil
	case "||":
		return func(l, r val) val { return boolVal(l.bool() || r.bool()) }, nil
	}
	return nil, fmt.Errorf("unknown binary operator %s", op)
}

// EvalValue evaluates a behavior expression to a value in the context of an
// instance (used by interpreted activation conditions and switch tags).
func (x *Exec) EvalValue(in *model.Instance, e ast.Expr) (bitvec.Value, error) {
	f := newFrame(in)
	v, err := x.eval(f, e)
	if err != nil {
		return bitvec.Value{}, err
	}
	return v.v, nil
}
