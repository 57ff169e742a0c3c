package behavior

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
	"golisa/internal/sema"
)

// ref is an assignable location: a getter/setter pair over storage.
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

// numLit is the value of an integer literal: 32-bit signed, or 64-bit when
// it does not fit.
func numLit(n uint64) val {
	if n > 0x7fffffff {
		return val{bitvec.New(n, 64), true}
	}
	return val{bitvec.New(n, 32), true}
}

// eval evaluates an expression in frame f.
func (x *Exec) eval(f *frame, e ast.Expr) val {
	switch ex := e.(type) {
	case *ast.NumLit:
		return numLit(ex.Val)
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			return val{f.locals[ex.Index], ex.Type.Signed()}
		case ast.RefLabel:
			return val{f.inst.Labels[ex.Name], false}
		case ast.RefOperand:
			return x.evalExpression(f.inst.Bindings[ex.Name])
		default: // ast.RefResource
			r := x.M.Resources[ex.Index]
			return val{x.S.Read(r), r.Signed}
		}
	case *ast.IndexExpr:
		return x.indexRef(f, ex).get()
	case *ast.BitsExpr:
		hi, lo := int(x.eval(f, ex.Hi).v.Int()), int(x.eval(f, ex.Lo).v.Int())
		return val{x.eval(f, ex.X).v.Slice(hi, lo), false}
	case *ast.UnaryExpr:
		return unopFor(ex.Op)(x.eval(f, ex.X))
	case *ast.BinaryExpr:
		l := x.eval(f, ex.L)
		if ex.Op == "&&" || ex.Op == "||" {
			// Short-circuit: the right operand decides only when the left
			// does not.
			if (ex.Op == "&&") != l.bool() {
				return boolVal(l.bool())
			}
			return boolVal(x.eval(f, ex.R).bool())
		}
		return binopFor(ex.Op)(l, x.eval(f, ex.R))
	case *ast.CondExpr:
		if x.eval(f, ex.C).bool() {
			return x.eval(f, ex.T)
		}
		return x.eval(f, ex.F)
	default: // *ast.CallExpr of a builtin
		c := ex.(*ast.CallExpr)
		if c.Builtin == ast.BuiltinWaitStates {
			return waitStates(x.M, c)
		}
		var argv [3]val
		for i, a := range c.Args {
			argv[i] = x.eval(f, a)
		}
		return builtinFor(c.Builtin)(argv)
	}
}

// evalExpression reads a bound operand: the value of its EXPRESSION
// section (the nml "mode" read path).
func (x *Exec) evalExpression(in *model.Instance) val {
	return x.eval(&frame{inst: in}, expressionOf(in))
}

// expressionOf returns the EXPRESSION of a bound operand; sema guarantees
// that every variant of an operand read or written has one. The decoder
// resolves the variant of every instance it binds, so only an instance
// bound by hand arrives unresolved; the error is dropped because binding
// one that matches no variant is the binder's bug.
func expressionOf(in *model.Instance) ast.Expr {
	if in.Variant == nil {
		_ = in.ResolveVariant()
	}
	return in.Variant.Expression.X
}

// execExpr runs an expression statement: a call, or a bare operand or
// operation name, which runs it (paper Example 3 writes
// BEHAVIOR { Instruction } to dispatch the decoded instruction). Any
// other expression has no effect.
func (x *Exec) execExpr(f *frame, e ast.Expr) error {
	kind, name, index := ast.RefNone, "", 0
	switch ex := e.(type) {
	case *ast.Ident:
		kind, name, index = ex.Kind, ex.Name, ex.Index
	case *ast.CallExpr:
		kind, name, index = ex.Kind, ex.Name, ex.Index
		switch ex.Kind {
		case ast.RefPipe:
			return x.pipeOp(ex)
		case ast.RefPrint:
			if x.Ctx != nil {
				x.Ctx.Print(formatPrint(ex.Args, func(i int) string {
					v := x.eval(f, ex.Args[i])
					return decimal(v.v.Uint(), v.v.Width(), v.signed)
				}))
			}
			return nil
		}
	}
	switch kind {
	case ast.RefOperand:
		return x.callInstance(f.inst.Bindings[name])
	case ast.RefOperation:
		return x.callOperation(x.M.OpList[index])
	}
	return nil
}

// lvalue resolves an assignment target.
func (x *Exec) lvalue(f *frame, e ast.Expr) ref {
	switch ex := e.(type) {
	case *ast.Ident:
		switch ex.Kind {
		case ast.RefLocal:
			slot, typ := ex.Index, ex.Type
			return ref{
				get: func() val { return val{f.locals[slot], typ.Signed()} },
				set: func(v bitvec.Value) { f.locals[slot] = convert(val{v, false}, typ) },
			}
		case ast.RefOperand:
			in := f.inst.Bindings[ex.Name]
			return x.lvalue(&frame{inst: in}, expressionOf(in))
		default: // ast.RefResource
			r := x.M.Resources[ex.Index]
			return ref{
				get: func() val { return val{x.S.Read(r), r.Signed} },
				set: func(v bitvec.Value) { x.S.Write(r, v) },
			}
		}
	case *ast.IndexExpr:
		return x.indexRef(f, ex)
	default: // *ast.BitsExpr
		bits := e.(*ast.BitsExpr)
		base := x.lvalue(f, bits.X)
		hi, lo := int(x.eval(f, bits.Hi).v.Int()), int(x.eval(f, bits.Lo).v.Int())
		return ref{
			get: func() val { return val{base.get().v.Slice(hi, lo), false} },
			set: func(v bitvec.Value) { base.set(base.get().v.InsertSlice(hi, lo, v.Uint())) },
		}
	}
}

// indexRef resolves x[i]: a memory element, a bit of a scalar, or, on a
// banked memory, x[bank][i].
func (x *Exec) indexRef(f *frame, ex *ast.IndexExpr) ref {
	if inner, ok := ex.X.(*ast.IndexExpr); ok {
		r := x.M.Resources[inner.X.(*ast.Ident).Index]
		bank, addr := x.eval(f, inner.I).v.Uint(), x.eval(f, ex.I).v.Uint()
		return ref{
			get: func() val {
				v, err := x.S.ReadBanked(r, bank, addr)
				if err != nil {
					v = bitvec.New(0, r.Width)
				}
				return val{v, r.Signed}
			},
			set: func(v bitvec.Value) { _ = x.S.WriteBanked(r, bank, addr, v) },
		}
	}
	r := x.M.Resources[ex.X.(*ast.Ident).Index]
	i := x.eval(f, ex.I).v
	if !r.IsMemory() {
		bit := int(i.Int())
		return ref{
			get: func() val { return val{bitvec.New(x.S.Read(r).Bit(bit), 1), false} },
			set: func(v bitvec.Value) { x.S.Write(r, x.S.Read(r).SetBit(bit, v.Uint())) },
		}
	}
	addr := i.Uint()
	return ref{
		get: func() val {
			v, err := x.S.ReadElem(r, addr)
			if err != nil {
				v = bitvec.New(0, r.Width)
			}
			return val{v, r.Signed}
		},
		set: func(v bitvec.Value) { _ = x.S.WriteElem(r, addr, v) },
	}
}

// callOperation executes an operation by name (a plain behavior call to a
// helper operation). Under a simulator context the call goes through the
// full execute path (decode, behavior, activation).
func (x *Exec) callOperation(op *model.Operation) error {
	if x.Ctx != nil {
		return x.Ctx.CallOp(op)
	}
	return x.runBehavior(model.NewInstance(op))
}

// callInstance executes a bound operand.
func (x *Exec) callInstance(in *model.Instance) error {
	if x.Ctx != nil {
		return x.Ctx.CallInstance(in)
	}
	return x.runBehavior(in)
}

// pipeOp performs a pipeline built-in called from behavior code.
func (x *Exec) pipeOp(c *ast.CallExpr) error {
	if x.Ctx == nil {
		return fmt.Errorf("%s: pipeline operation %s outside simulation context", c.Pos, c.Name)
	}
	return x.Ctx.PipeOp(x.M.Pipelines[c.Pipe.Pipe], c.Pipe.Stage, pipeline.Op(c.Pipe.Op))
}

// waitStates is the value of wait_states(r): r's access wait states.
func waitStates(m *model.Model, c *ast.CallExpr) val {
	return val{bitvec.New(uint64(m.Resources[c.Args[0].(*ast.Ident).Index].Wait), 32), false}
}

// builtinFor returns the function of a builtin; it takes its (at most
// three) arguments by value, so that calling it allocates nothing.
func builtinFor(fn ast.Builtin) func(a [3]val) val {
	switch fn {
	case ast.BuiltinAbs:
		return func(a [3]val) val { return val{bitvec.Abs(a[0].v), true} }
	case ast.BuiltinMin, ast.BuiltinMax:
		wantMax := fn == ast.BuiltinMax
		return func(a [3]val) val {
			cmp := bitvec.CmpS(a[0].v, a[1].v)
			if !a[0].signed && !a[1].signed {
				cmp = bitvec.CmpU(a[0].v, a[1].v)
			}
			if wantMax && cmp >= 0 || !wantMax && cmp <= 0 {
				return a[0]
			}
			return a[1]
		}
	case ast.BuiltinSaturate:
		return func(a [3]val) val { return val{bitvec.SatS(a[0].v, int(a[1].v.Int())), true} }
	case ast.BuiltinSignExtend:
		return func(a [3]val) val { return val{bitvec.SignExtend(a[0].v.Resize(64), int(a[1].v.Int())), true} }
	case ast.BuiltinZeroExtend:
		return func(a [3]val) val { return val{bitvec.ZeroExtend(a[0].v.Resize(64), int(a[1].v.Int())), false} }
	case ast.BuiltinAddSat:
		return func(a [3]val) val { return val{bitvec.AddSat(a[0].v, a[1].v), true} }
	case ast.BuiltinSubSat:
		return func(a [3]val) val { return val{bitvec.SubSat(a[0].v, a[1].v), true} }
	case ast.BuiltinBits:
		return func(a [3]val) val { return val{a[0].v.Slice(int(a[1].v.Int()), int(a[2].v.Int())), false} }
	}
	panic(fmt.Sprintf("behavior: builtin %d has no function", fn))
}

// formatPrint renders print() arguments: string literals verbatim, values
// as decimal, space-separated; value(i) renders argument i.
func formatPrint(args []ast.Expr, value func(i int) string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		if s, ok := a.(*ast.StrLit); ok {
			parts[i] = s.Val
			continue
		}
		parts[i] = value(i)
	}
	return strings.Join(parts, " ")
}

// decimal renders the payload of a w-bit value, signed or unsigned.
func decimal(v uint64, w int, signed bool) string {
	if signed {
		return fmt.Sprintf("%d", bitvec.Sext(v, w))
	}
	return fmt.Sprintf("%d", v)
}

// --- operators ----------------------------------------------------------------

// unopFor returns the function of a unary operator. The parser produces
// only these operators.
func unopFor(op string) func(val) val {
	switch op {
	case "-":
		return func(v val) val { return val{bitvec.Neg(v.v), true} }
	case "+":
		return func(v val) val { return v }
	case "!":
		return func(v val) val { return val{bitvec.FromBool(!v.bool()), false} }
	case "~":
		return func(v val) val { return val{bitvec.Not(v.v), v.signed} }
	}
	panic("behavior: unknown unary operator " + op)
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

// equal reports whether two operands are equal once widened: == and
// switch's case match.
func equal(l, r val) bool {
	a, b, _ := widen(l, r)
	return a.Uint() == b.Uint()
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

// binopFor returns the function of a binary operator. The parser produces
// only these operators.
func binopFor(op string) func(l, r val) val {
	switch op {
	case "+":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Add(a, b), l.signed || r.signed} }
	case "-":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Sub(a, b), l.signed || r.signed} }
	case "*":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Mul(a, b), l.signed || r.signed} }
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
		}
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
		}
	case "&":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.And(a, b), l.signed || r.signed} }
	case "|":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Or(a, b), l.signed || r.signed} }
	case "^":
		return func(l, r val) val { a, b, _ := widen(l, r); return val{bitvec.Xor(a, b), l.signed || r.signed} }
	case "<<":
		return func(l, r val) val { return val{bitvec.Shl(l.v, uint(r.v.Uint()&63)), l.signed} }
	case ">>":
		return func(l, r val) val {
			if l.signed {
				return val{bitvec.ShrS(l.v, uint(r.v.Uint()&63)), true}
			}
			return val{bitvec.ShrU(l.v, uint(r.v.Uint()&63)), false}
		}
	case "==":
		return func(l, r val) val { return boolVal(equal(l, r)) }
	case "!=":
		return func(l, r val) val { return boolVal(!equal(l, r)) }
	case "<":
		return func(l, r val) val { return boolVal(compare(l, r) < 0) }
	case "<=":
		return func(l, r val) val { return boolVal(compare(l, r) <= 0) }
	case ">":
		return func(l, r val) val { return boolVal(compare(l, r) > 0) }
	case ">=":
		return func(l, r val) val { return boolVal(compare(l, r) >= 0) }
	case "&&":
		return func(l, r val) val { return boolVal(l.bool() && r.bool()) }
	case "||":
		return func(l, r val) val { return boolVal(l.bool() || r.bool()) }
	}
	panic("behavior: unknown binary operator " + op)
}

// EvalValue evaluates an expression outside the model's code, such as a
// debugger's watch expression, in the context of an instance: it binds
// the expression's names in the instance's operation first, so e must not
// be a node of the model's own code, whose bindings sema already set.
func (x *Exec) EvalValue(in *model.Instance, e ast.Expr) (bitvec.Value, error) {
	if err := sema.ResolveExpr(x.M, in.Op, e); err != nil {
		return bitvec.Value{}, err
	}
	return x.eval(&frame{inst: in}, e).v, nil
}
