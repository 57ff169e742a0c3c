package sema

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/lexer"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// This file binds the names of BEHAVIOR, EXPRESSION and ACTIVATION code,
// once, at load. Every identifier, call, local and activation item gets
// its kind and index recorded on its AST node, where the executors read
// it; every defect that an executor would otherwise meet only when it
// runs the code is reported here, with its position. The checks together
// guarantee that a running instance has every name its sections read.

// builtins is the behavior language's builtin table: each value-returning
// builtin and its arity. print, a statement, is not in it.
var builtins = map[string]struct {
	fn    ast.Builtin
	arity int
}{
	"abs":         {ast.BuiltinAbs, 1},
	"min":         {ast.BuiltinMin, 2},
	"max":         {ast.BuiltinMax, 2},
	"saturate":    {ast.BuiltinSaturate, 2},
	"sign_extend": {ast.BuiltinSignExtend, 2},
	"zero_extend": {ast.BuiltinZeroExtend, 2},
	"addsat":      {ast.BuiltinAddSat, 2},
	"subsat":      {ast.BuiltinSubSat, 2},
	"bits":        {ast.BuiltinBits, 3},
	"wait_states": {ast.BuiltinWaitStates, 1},
}

// runByName lists the operations the simulator runs by name (its default
// MainOp and ResetOp), which therefore must not read labels or operands.
var runByName = []string{"main", "reset"}

// use is a name use whose check needs the whole model resolved: an
// operand write depends on the members' EXPRESSION sections, a run by
// name on whether the target reads labels or operands.
type use struct {
	pos  lexer.Pos
	op   *model.Operation // a write: the operation the operand belongs to; nil for a run by name
	name string
}

// resolveCode binds the code of every variant of every operation, then
// checks the uses that need the whole model bound.
func (a *Analyzer) resolveCode() {
	seen := map[any]bool{}
	for _, op := range a.m.OpList {
		for _, v := range op.Variants {
			r := &resolver{a: a, op: op, v: v}
			if sec := v.Behavior; sec != nil {
				r.shared = seen[sec]
				seen[sec] = true
				r.block(sec.Body)
				sec.Slots = r.slots
			}
			if sec := v.Expression; sec != nil {
				r.shared = seen[sec]
				seen[sec] = true
				r.expr(sec.X)
			}
			if sec := v.Activation; sec != nil {
				r.shared = seen[sec]
				seen[sec] = true
				r.acts(sec.Items)
			}
			op.ReadsOperands = op.ReadsOperands || r.reads
		}
	}
	for _, name := range runByName {
		if op := a.m.Ops[name]; op != nil {
			a.uses = append(a.uses, use{pos: op.Src.Pos, name: name})
		}
	}
	a.checkUses()
}

// ResolveExpr binds a value expression that is not part of the model's
// code, such as a debugger's watch expression, in the context of op. It
// reports the first defect.
func ResolveExpr(m *model.Model, op *model.Operation, e ast.Expr) error {
	a := &Analyzer{m: m}
	r := &resolver{a: a, op: op}
	r.expr(e)
	a.checkUses()
	if len(a.errs) > 0 {
		return a.errs[0]
	}
	return nil
}

// codingBinds reports whether a CODING section binds name: a field's
// label or a reference.
func codingBinds(c *ast.CodingSec, name string) bool {
	if c == nil {
		return false
	}
	for _, e := range c.Elems {
		switch el := e.(type) {
		case *ast.CodingField:
			if el.Label == name {
				return true
			}
		case *ast.CodingRef:
			if el.Name == name {
				return true
			}
		}
	}
	return false
}

// resolver binds the code of one variant of one operation.
type resolver struct {
	a  *Analyzer
	op *model.Operation

	// v is the variant whose code is bound; nil for an expression outside
	// the model, which gets no binding check.
	v *model.Variant
	// shared marks a section an earlier variant already bound: a name
	// that binds differently now is an error.
	shared bool
	// reads records that the code reads a label or an operand.
	reads bool

	scopes      []map[string]*ast.DeclStmt
	next, slots int

	// While a run-time condition is bound, guard collects the resources
	// it names.
	inCond bool
	guard  []int
}

func (r *resolver) errorf(pos lexer.Pos, format string, args ...any) {
	r.a.errorAt(pos, format, args...)
}

// errorAt reports a defect in BEHAVIOR, EXPRESSION or ACTIVATION code. A
// section shared by several variants is bound once per variant, so a
// defect is reported once, not once per variant.
func (a *Analyzer) errorAt(pos lexer.Pos, format string, args ...any) {
	msg := fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...))
	if a.reported == nil {
		a.reported = map[string]bool{}
	}
	if !a.reported[msg] {
		a.reported[msg] = true
		a.errs = append(a.errs, errors.New(msg))
	}
}

// --- locals --------------------------------------------------------------------

// Slots are numbered like a stack: a scope's slots are reused once it
// closes, so a body needs as many slots as its deepest nesting declares.

func (r *resolver) push() { r.scopes = append(r.scopes, nil) }

func (r *resolver) pop() {
	r.next -= len(r.scopes[len(r.scopes)-1])
	r.scopes = r.scopes[:len(r.scopes)-1]
}

func (r *resolver) declare(d *ast.DeclStmt) {
	top := r.scopes[len(r.scopes)-1]
	if _, dup := top[d.Name]; dup {
		r.errorf(d.Pos, "redeclared local %s", d.Name)
		return
	}
	if top == nil {
		top = map[string]*ast.DeclStmt{}
		r.scopes[len(r.scopes)-1] = top
	}
	top[d.Name] = d
	d.Slot = r.next
	r.next++
	r.slots = max(r.slots, r.next)
}

func (r *resolver) local(name string) *ast.DeclStmt {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if d, ok := r.scopes[i][name]; ok {
			return d
		}
	}
	return nil
}

// --- names ---------------------------------------------------------------------

// binding is what a name resolves to.
type binding struct {
	kind  ast.RefKind
	index int
	typ   ast.TypeSpec
}

// lookup resolves a name in the order local, label, operand, resource,
// operation; an unknown name yields RefNone.
func (r *resolver) lookup(pos lexer.Pos, name string) binding {
	if d := r.local(name); d != nil {
		return binding{ast.RefLocal, d.Slot, d.Type}
	}
	if r.op.Labels[name] {
		r.bound(pos, "label", name)
		return binding{kind: ast.RefLabel}
	}
	if b, ok := r.operand(pos, name); ok {
		return b
	}
	if res := r.a.m.Resource(name); res != nil {
		return binding{kind: ast.RefResource, index: res.Index}
	}
	if op := r.a.m.Ops[name]; op != nil {
		return binding{kind: ast.RefOperation, index: op.Index}
	}
	return binding{}
}

// operand resolves a group, a REFERENCE or an operation the variant's
// CODING names.
func (r *resolver) operand(pos lexer.Pos, name string) (binding, bool) {
	_, group := r.op.Groups[name]
	_, ref := r.op.Refs[name]
	if !group && !ref && !(r.v != nil && r.a.m.Ops[name] != nil && codingBinds(r.v.Coding, name)) {
		return binding{}, false
	}
	r.bound(pos, "operand", name)
	return binding{kind: ast.RefOperand}, true
}

// bound records a label or operand read and checks that the CODING binds
// it, so that every decoded instance carries it. The decoder matches one
// CODING of the operation and selects the variant afterwards, so the name
// must be bound by the variant's CODING and by every other one.
func (r *resolver) bound(pos lexer.Pos, what, name string) {
	r.reads = true
	if r.v == nil {
		return
	}
	ok := r.v.Coding != nil
	for _, w := range r.op.Variants {
		ok = ok && (w.Coding == nil || codingBinds(w.Coding, name))
	}
	if !ok {
		r.errorf(pos, "%s %s of %s is not bound by its CODING", what, name, r.op.Name)
	}
}

// set records a binding on a node, and rejects a name that binds
// differently than it did for an earlier variant sharing the section.
func (r *resolver) set(pos lexer.Pos, name string, kind *ast.RefKind, index *int, b binding) {
	if r.shared && (*kind != b.kind || *index != b.index) {
		r.errorf(pos, "%s resolves differently in the variants of %s", name, r.op.Name)
	}
	*kind, *index = b.kind, b.index
}

// ident binds an identifier and returns its kind; an unknown name is
// reported and yields RefNone.
func (r *resolver) ident(id *ast.Ident) ast.RefKind {
	b := r.lookup(id.Pos, id.Name)
	if b.kind == ast.RefNone {
		r.errorf(id.Pos, "unknown identifier %s", id.Name)
	}
	r.set(id.Pos, id.Name, &id.Kind, &id.Index, b)
	id.Type = b.typ
	if r.inCond && b.kind == ast.RefResource && !slices.Contains(r.guard, b.index) {
		r.guard = append(r.guard, b.index)
	}
	return b.kind
}

// --- statements ----------------------------------------------------------------

func (r *resolver) block(b *ast.Block) {
	r.push()
	for _, s := range b.Stmts {
		r.stmt(s)
	}
	r.pop()
}

func (r *resolver) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.Block:
		r.block(st)
	case *ast.DeclStmt:
		if st.Init != nil {
			r.expr(st.Init)
		}
		r.declare(st)
	case *ast.ExprStmt:
		r.exprStmt(st.X)
	case *ast.AssignStmt:
		r.lvalue(st.LHS, st.Pos)
		r.expr(st.RHS)
	case *ast.IncDecStmt:
		r.lvalue(st.X, st.Pos)
	case *ast.IfStmt:
		st.Guard = r.cond(st.Cond)
		r.stmt(st.Then)
		if st.Else != nil {
			r.stmt(st.Else)
		}
	case *ast.WhileStmt:
		r.expr(st.Cond)
		r.stmt(st.Body)
	case *ast.DoWhileStmt:
		r.stmt(st.Body)
		r.expr(st.Cond)
	case *ast.ForStmt:
		r.push()
		if st.Init != nil {
			r.stmt(st.Init)
		}
		if st.Cond != nil {
			r.expr(st.Cond)
		}
		if st.Post != nil {
			r.stmt(st.Post)
		}
		r.stmt(st.Body)
		r.pop()
	case *ast.SwitchStmt:
		st.Guard = r.cond(st.Tag)
		for i := range st.Cases {
			c := &st.Cases[i]
			for _, v := range c.Vals {
				r.expr(v)
			}
			r.push()
			for _, s := range c.Stmts {
				r.stmt(s)
			}
			r.pop()
		}
	case *ast.ReturnStmt:
		if st.X != nil {
			r.expr(st.X)
		}
	}
}

// exprStmt binds an expression statement: a call, a bare operand or
// operation name (which runs it, as in BEHAVIOR { Instruction }), or a
// value computed for nothing.
func (r *resolver) exprStmt(e ast.Expr) {
	switch x := e.(type) {
	case *ast.CallExpr:
		r.call(x, true)
	case *ast.Ident:
		switch r.ident(x) {
		case ast.RefOperand:
		case ast.RefOperation:
			r.a.uses = append(r.a.uses, use{pos: x.Pos, name: x.Name})
		default:
			r.value(x)
		}
	default:
		r.expr(e)
	}
}

// cond binds a run-time condition and returns the resources it names, in
// source order and without repeats (ident collects them).
func (r *resolver) cond(e ast.Expr) []int {
	r.inCond = true
	r.expr(e)
	guard := r.guard
	r.inCond, r.guard = false, nil
	return guard
}

// --- expressions ---------------------------------------------------------------

// expr binds an expression read for its value.
func (r *resolver) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.StrLit:
		r.errorf(x.Pos, "string literal outside print()")
	case *ast.Ident:
		r.ident(x)
		r.value(x)
	case *ast.IndexExpr:
		r.index(x)
	case *ast.BitsExpr:
		r.expr(x.X)
		r.expr(x.Hi)
		r.expr(x.Lo)
	case *ast.UnaryExpr:
		r.expr(x.X)
	case *ast.BinaryExpr:
		r.expr(x.L)
		r.expr(x.R)
	case *ast.CondExpr:
		r.expr(x.C)
		r.expr(x.T)
		r.expr(x.F)
	case *ast.CallExpr:
		r.call(x, false)
	}
}

// value checks that a bound identifier has a value.
func (r *resolver) value(id *ast.Ident) {
	switch id.Kind {
	case ast.RefOperand:
		// Reading an operand reads its member's EXPRESSION.
		for _, m := range r.a.operandOps(r.op, id.Name) {
			if !hasExpression(m) {
				r.errorf(id.Pos, "operand %s has no value: operation %s has no EXPRESSION section", id.Name, m.Name)
				break
			}
		}
	case ast.RefResource:
		if res := r.a.m.Resources[id.Index]; res.IsMemory() {
			r.errorf(id.Pos, "memory resource %s needs an index", id.Name)
		}
	case ast.RefOperation:
		r.errorf(id.Pos, "operation %s is not a value", id.Name)
	}
}

// lvalue binds an assignment target; op is the assignment operator's
// position.
func (r *resolver) lvalue(e ast.Expr, op lexer.Pos) {
	switch x := e.(type) {
	case *ast.Ident:
		switch r.ident(x) {
		case ast.RefLabel:
			r.errorf(x.Pos, "label %s is not assignable", x.Name)
		case ast.RefOperand:
			r.a.uses = append(r.a.uses, use{pos: x.Pos, op: r.op, name: x.Name})
		case ast.RefResource:
			r.value(x)
		case ast.RefOperation:
			r.errorf(x.Pos, "operation %s is not assignable", x.Name)
		}
	case *ast.IndexExpr:
		r.index(x)
	case *ast.BitsExpr:
		r.lvalue(x.X, op)
		r.expr(x.Hi)
		r.expr(x.Lo)
	default:
		r.expr(e)
		r.errorf(op, "expression is not assignable")
	}
}

// index binds x[i]: an element of a memory, a bit of a scalar resource,
// or, on a banked memory, x[bank][i].
func (r *resolver) index(x *ast.IndexExpr) {
	if inner, ok := x.X.(*ast.IndexExpr); ok {
		if id, ok := inner.X.(*ast.Ident); ok && r.ident(id) == ast.RefResource && r.a.m.Resources[id.Index].Banks > 0 {
			r.expr(inner.I)
			r.expr(x.I)
			return
		}
	} else if id, ok := x.X.(*ast.Ident); ok {
		switch r.ident(id) {
		case ast.RefResource:
			r.expr(x.I)
			return
		case ast.RefNone:
			return // reported as unknown
		}
	}
	r.errorf(x.Pos, "cannot index a non-resource expression")
}

// call binds a call. Only builtins have a value: operation, operand,
// pipeline and print calls are statements.
func (r *resolver) call(c *ast.CallExpr, stmt bool) {
	switch {
	case strings.Contains(c.Name, "."):
		if !r.pipeCall(c) {
			return
		}
	case c.Name == "print":
		c.Kind = ast.RefPrint
		for _, arg := range c.Args {
			if _, str := arg.(*ast.StrLit); !str {
				r.expr(arg)
			}
		}
	default:
		if bi, ok := builtins[c.Name]; ok {
			r.builtin(c, bi.fn, bi.arity)
			return
		}
		b, ok := r.target(c.Pos, c.Name)
		if !ok {
			r.errorf(c.Pos, "unknown function or operation %s", c.Name)
			return
		}
		r.set(c.Pos, c.Name, &c.Kind, &c.Index, b)
		if len(c.Args) != 0 {
			r.errorf(c.Pos, "operation call %s takes no arguments", c.Name)
		}
	}
	if !stmt {
		r.errorf(c.Pos, "%s() is a statement, not a value", c.Name)
	}
}

// target resolves what a call or an activation runs: an operand, else an
// operation by name.
func (r *resolver) target(pos lexer.Pos, name string) (binding, bool) {
	if b, ok := r.operand(pos, name); ok {
		return b, true
	}
	op := r.a.m.Ops[name]
	if op == nil {
		return binding{}, false
	}
	r.a.uses = append(r.a.uses, use{pos: pos, name: name})
	return binding{kind: ast.RefOperation, index: op.Index}, true
}

func (r *resolver) builtin(c *ast.CallExpr, fn ast.Builtin, arity int) {
	c.Kind, c.Builtin = ast.RefBuiltin, fn
	if len(c.Args) != arity {
		r.errorf(c.Pos, "%s expects %d arguments, got %d", c.Name, arity, len(c.Args))
		return
	}
	if fn == ast.BuiltinWaitStates {
		id, ok := c.Args[0].(*ast.Ident)
		if ok {
			k := r.ident(id) // an unknown name is reported there
			ok = k == ast.RefResource || k == ast.RefNone
		}
		if !ok {
			r.errorf(c.Pos, "wait_states expects a resource name")
		}
		return
	}
	for _, arg := range c.Args {
		r.expr(arg)
	}
}

// pipeCall binds pipe.op() or pipe.stage.op(); it reports false on a
// defect.
func (r *resolver) pipeCall(c *ast.CallExpr) bool {
	parts := strings.Split(c.Name, ".")
	stage := ""
	switch len(parts) {
	case 2:
	case 3:
		stage = parts[1]
	default:
		r.errorf(c.Pos, "malformed pipeline call %s", c.Name)
		return false
	}
	ref, ok := r.pipeRef(c.Pos, parts[0], stage, parts[len(parts)-1])
	if ok {
		c.Kind, c.Pipe = ast.RefPipe, ref
	}
	return ok
}

// pipeRef resolves a pipeline, an optional stage and a pipeline
// operation.
func (r *resolver) pipeRef(pos lexer.Pos, pipe, stage, op string) (ast.PipeRef, bool) {
	p := r.a.m.Pipeline(pipe)
	if p == nil {
		r.errorf(pos, "unknown pipeline %s", pipe)
		return ast.PipeRef{}, false
	}
	ref := ast.PipeRef{Pipe: p.Index, Stage: -1}
	if stage != "" {
		if ref.Stage = p.StageIndex(stage); ref.Stage < 0 {
			r.errorf(pos, "unknown stage %s.%s", pipe, stage)
			return ast.PipeRef{}, false
		}
	}
	o, ok := pipeline.ParseOp(op)
	if !ok {
		r.errorf(pos, "unknown pipeline operation %s", op)
		return ast.PipeRef{}, false
	}
	ref.Op = uint8(o)
	return ref, true
}

// --- activation ----------------------------------------------------------------

func (r *resolver) acts(items []ast.ActItem) {
	for _, it := range items {
		switch item := it.(type) {
		case *ast.ActRef:
			r.a.m.MaxActDelay = max(r.a.m.MaxActDelay, item.Delay)
			b, ok := r.target(item.Pos, item.Name)
			if !ok {
				r.errorf(item.Pos, "activation in %s references unknown operation or group %s", r.op.Name, item.Name)
				continue
			}
			r.set(item.Pos, item.Name, &item.Kind, &item.Index, b)
		case *ast.ActPipeOp:
			r.a.m.MaxActDelay = max(r.a.m.MaxActDelay, item.Delay)
			item.Ref, _ = r.pipeRef(item.Pos, item.Pipe, item.Stage, item.Op)
		case *ast.ActIf:
			item.Guard = r.cond(item.Cond)
			r.acts(item.Then)
			r.acts(item.Else)
		case *ast.ActSwitch:
			item.Guard = r.cond(item.Tag)
			for _, c := range item.Cases {
				for _, v := range c.Vals {
					r.expr(v)
				}
				r.acts(c.Items)
			}
		}
	}
}

// --- whole-model checks --------------------------------------------------------

// checkUses checks operand writes against the members' EXPRESSION
// sections, and runs by name against the targets' reads.
func (a *Analyzer) checkUses() {
	for _, u := range a.uses {
		if u.op == nil {
			if op := a.m.Ops[u.name]; op.ReadsOperands && !op.IsCodingRoot {
				a.errorAt(u.pos, "operation %s reads labels or operands and cannot run by name", u.name)
			}
			continue
		}
		for _, m := range a.operandOps(u.op, u.name) {
			if !a.assignable(m) {
				a.errorAt(u.pos, "operand %s is not assignable: the EXPRESSION of %s is not", u.name, m.Name)
				break
			}
		}
	}
	a.uses = nil
}

// operandOps returns the operations an operand of op can bind: a group's
// members, else the operation of that name.
func (a *Analyzer) operandOps(op *model.Operation, name string) []*model.Operation {
	if g := op.Groups[name]; g != nil {
		return g.Members
	}
	return []*model.Operation{a.m.Ops[name]}
}

func hasExpression(op *model.Operation) bool {
	for _, v := range op.Variants {
		if v.Expression == nil {
			return false
		}
	}
	return true
}

// assignable reports whether every variant of op has an EXPRESSION that
// names a storage location. Results are memoized; an operand cycle is not
// assignable.
func (a *Analyzer) assignable(op *model.Operation) bool {
	if ok, done := a.lvalues[op]; done {
		return ok
	}
	if a.lvalues == nil {
		a.lvalues = map[*model.Operation]bool{}
	}
	a.lvalues[op] = false
	ok := hasExpression(op)
	for _, v := range op.Variants {
		ok = ok && a.isLvalue(op, v.Expression.X)
	}
	a.lvalues[op] = ok
	return ok
}

func (a *Analyzer) isLvalue(op *model.Operation, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Kind {
		case ast.RefResource:
			return true
		case ast.RefOperand:
			for _, m := range a.operandOps(op, x.Name) {
				if !a.assignable(m) {
					return false
				}
			}
			return true
		}
	case *ast.IndexExpr:
		return true
	case *ast.BitsExpr:
		return a.isLvalue(op, x.X)
	}
	return false
}
