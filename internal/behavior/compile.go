package behavior

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// This file implements the pre-binding behavior compiler used by the
// compiled simulator: each bound instance's behavior is translated once
// into a tree of Go closures over sema's bindings — locals are uint64
// slots, decoded label fields become constants, operand bindings become
// directly-compiled EXPRESSION accessors, and resources become pointers.
// Every node's width and signedness is fixed then too (compile_expr.go),
// and what is constant for the instance folds away. Re-executing an
// instruction then runs straight-line closures over raw words with no
// name lookup and no AST walk, which is the Go analog of the paper's
// compiled simulation technique (translating the program to host code).

// compiledBehavior is the executable form of one bound instance: its
// behavior closure (nil when it has no behavior, or one that folds away)
// and its activation plan. interp marks a behavior with a node of no
// static type, which runs through the interpreter instead.
type compiledBehavior struct {
	body   cstmt
	nslots int
	interp bool
	plan   []ActStep
}

// cstate is the per-execution state of compiled code.
type cstate struct {
	x      *Exec
	locals []uint64
}

// cstmt is a compiled statement.
type cstmt func(*cstate) error

// RunCompiled executes the instance's behavior through its compiled closure,
// compiling on first use, and returns the instance's bound activation plan.
// The compiled form hangs off the instance (model.Instance.Code), which is
// immutable once bound. Like Exec.Run, every call gets a fresh statement
// budget. Frames are reused from a stack indexed by call depth (behavior
// calls re-enter through Context.CallOp/CallInstance), so a run allocates
// nothing once warm.
func RunCompiled(x *Exec, in *model.Instance) ([]ActStep, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return nil, err
		}
	}
	cb := compiledFor(x, in)
	if cb.interp {
		x.steps = 0
		return cb.plan, x.runBehavior(in)
	}
	if cb.body == nil {
		return cb.plan, nil
	}
	if x.depth == len(x.frames) {
		x.frames = append(x.frames, &cstate{x: x})
	}
	st := x.frames[x.depth]
	if cap(st.locals) < cb.nslots {
		st.locals = make([]uint64, cb.nslots)
	}
	st.locals = st.locals[:cb.nslots]
	clear(st.locals)
	x.steps = 0
	x.depth++
	err := cb.body(st)
	x.depth--
	if sig, ok := err.(ctrlSignal); ok && sig == ctrlReturn {
		err = nil
	}
	return cb.plan, err
}

// compiledFor returns the compiled form of in. An artifact's instances
// carry theirs from the build. Other instances belong to one engine and
// get theirs on first use, except under a shared set: an instance there
// may belong to the artifact, which no engine writes, so a miss compiles
// into the engine's private cache instead.
func compiledFor(x *Exec, in *model.Instance) *compiledBehavior {
	if cb, ok := in.Code.(*compiledBehavior); ok {
		return cb
	}
	if cb, ok := x.compiled[in]; ok {
		return cb
	}
	cb, n := compileInstance(x, in)
	x.Compiles += n
	switch {
	case x.Shared == nil:
		in.Code = cb
	case x.compiled == nil:
		x.compiled = map[*model.Instance]*compiledBehavior{in: cb}
	default:
		x.compiled[in] = cb
	}
	return cb
}

// compileInstance compiles in's behavior and binds its activation plan. n
// counts the closures compiled: the behavior plus every activation
// condition, switch tag and case value.
func compileInstance(x *Exec, in *model.Instance) (cb *compiledBehavior, n uint64) {
	c := &compiler{x: x, in: in}
	cb = &compiledBehavior{}
	if b := in.Variant.Behavior; b != nil {
		cb.body, cb.nslots = c.compileBlock(b.Body.Stmts), b.Slots
		if cb.interp = c.untyped; cb.interp {
			cb.body = nil
		}
	}
	if a := in.Variant.Activation; a != nil {
		cb.plan = bindActs(x, in, a.Items, c)
	}
	return cb, 1 + c.acts
}

// compiler compiles the code of one bound instance.
type compiler struct {
	x       *Exec
	in      *model.Instance
	acts    uint64 // activation expressions compiled
	untyped bool   // a node with no static type was met
}

// --- statements ---------------------------------------------------------------

// compileBlock compiles a statement list. Statements without effect
// compile to nil and drop out; a list of none is nil too.
func (c *compiler) compileBlock(list []ast.Stmt) cstmt {
	var stmts []cstmt
	for _, s := range list {
		if f := c.compileStmt(s); f != nil {
			stmts = append(stmts, f)
		}
	}
	switch len(stmts) {
	case 0:
		return nil
	case 1:
		return stmts[0]
	}
	return func(st *cstate) error {
		for _, s := range stmts {
			if err := s(st); err != nil {
				return err
			}
		}
		return nil
	}
}

// body compiles the body of an if, else, while or do. A declaration that
// is the whole body declares its local in the enclosing scope, where
// later code may read it unset: a slot the interpreter leaves without a
// type, so the instance is interpreted.
func (c *compiler) body(s ast.Stmt) cstmt {
	if _, ok := s.(*ast.DeclStmt); ok {
		c.untyped = true
	}
	return c.compileStmt(s)
}

// compileStmt compiles a statement; nil when it has no effect.
func (c *compiler) compileStmt(s ast.Stmt) cstmt {
	switch st := s.(type) {
	case *ast.Block:
		return c.compileBlock(st.Stmts)
	case *ast.DeclStmt:
		slot, signed := st.Slot, st.Type.Signed()
		local := cref{texpr: texpr{typ: typ{st.Type.Width, signed}}, sext: signed}
		local.set = func(cs *cstate, v uint64) { cs.locals[slot] = v }
		if st.Init == nil {
			return local.store(texpr{typ: local.typ})
		}
		return local.store(c.compileExpr(st.Init))
	case *ast.ExprStmt:
		return c.compileExprStmt(st.X)
	case *ast.AssignStmt:
		ref, rhs := c.compileRef(st.LHS), c.compileExpr(st.RHS)
		if st.Op != "=" {
			rhs = binary(st.Op[:len(st.Op)-1], ref.texpr, rhs)
		}
		return ref.store(rhs)
	case *ast.IncDecStmt:
		ref := c.compileRef(st.X)
		get, set, m, d := ref.fn(), ref.set, bitvec.Mask(ref.w), uint64(1)
		if st.Op == "--" {
			d = m // -1 at the target's width
		}
		return func(cs *cstate) error {
			set(cs, (get(cs)+d)&m)
			return nil
		}
	case *ast.IfStmt:
		cond, then, els := c.compileExpr(st.Cond), c.body(st.Then), cstmt(nil)
		if st.Else != nil {
			els = c.body(st.Else)
		}
		guard := st.Guard
		if cond.f == nil { // the branch is known: no test at run time
			if cond.k == 0 {
				then = els
			}
			if then == nil {
				return nil
			}
			return func(cs *cstate) error { return runGuarded(cs, guard, then) }
		}
		if then == nil && els == nil {
			return nil
		}
		test := cond.f
		return func(cs *cstate) error {
			body := then
			if test(cs) == 0 {
				body = els
			}
			if body == nil {
				return nil
			}
			return runGuarded(cs, guard, body)
		}
	case *ast.WhileStmt:
		cond, body := c.compileExpr(st.Cond).fn(), c.body(st.Body)
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				if cond(cs) == 0 {
					return nil
				}
				if done, err := runLoopBody(cs, body); err != nil || done {
					return err
				}
			}
		}
	case *ast.DoWhileStmt:
		body, cond := c.body(st.Body), c.compileExpr(st.Cond).fn()
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				if done, err := runLoopBody(cs, body); err != nil || done {
					return err
				}
				if cond(cs) == 0 {
					return nil
				}
			}
		}
	case *ast.ForStmt:
		var init, post cstmt
		cond := func(*cstate) uint64 { return 1 }
		if st.Init != nil {
			init = c.compileStmt(st.Init)
		}
		if st.Cond != nil {
			cond = c.compileExpr(st.Cond).fn()
		}
		if st.Post != nil {
			post = c.compileStmt(st.Post)
		}
		body := c.compileStmt(st.Body)
		return func(cs *cstate) error {
			if init != nil {
				if err := init(cs); err != nil {
					return err
				}
			}
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				if cond(cs) == 0 {
					return nil
				}
				if done, err := runLoopBody(cs, body); err != nil || done {
					return err
				}
				if post != nil {
					if err := post(cs); err != nil {
						return err
					}
				}
			}
		}
	case *ast.SwitchStmt:
		return c.compileSwitch(st)
	case *ast.BreakStmt:
		return func(*cstate) error { return ctrlBreak }
	case *ast.ContinueStmt:
		return func(*cstate) error { return ctrlContinue }
	case *ast.ReturnStmt:
		return func(*cstate) error { return ctrlReturn }
	}
	return nil // *ast.EmptyStmt
}

// compileSwitch compiles a switch. The tag matches a case value as ==
// has them equal: both widened to the wider width.
func (c *compiler) compileSwitch(st *ast.SwitchStmt) cstmt {
	type ccase struct {
		eqs  []cexpr // tag == value, for each value
		body cstmt
	}
	var cases []ccase
	var deflt cstmt
	tag := c.compileExpr(st.Tag)
	for i := range st.Cases {
		sc := &st.Cases[i]
		var body cstmt
		if b := c.compileBlock(sc.Stmts); b != nil {
			body = func(cs *cstate) error {
				if err := b(cs); err != ctrlBreak {
					return err
				}
				return nil
			}
		}
		if sc.Default {
			deflt = body // the last default wins
			continue
		}
		cc := ccase{body: body}
		for _, e := range sc.Vals {
			cc.eqs = append(cc.eqs, binary("==", tag, c.compileExpr(e)).fn())
		}
		cases = append(cases, cc)
	}
	guard := st.Guard
	return func(cs *cstate) error {
		body := deflt
	match:
		for i := range cases {
			for _, eq := range cases[i].eqs {
				if eq(cs) != 0 {
					body = cases[i].body
					break match
				}
			}
		}
		if body == nil {
			return nil
		}
		return runGuarded(cs, guard, body)
	}
}

// runGuarded runs body with a condition's resources on the guard stack,
// mirroring the interpreter (Exec.guarded) exactly, so both engines
// attribute hazards identically (replay determinism).
func runGuarded(cs *cstate, guard []int, body cstmt) error {
	if cs.x.Obs == nil {
		return body(cs)
	}
	cs.x.guards = append(cs.x.guards, guard)
	err := body(cs)
	cs.x.guards = cs.x.guards[:len(cs.x.guards)-1]
	return err
}

// runLoopBody runs one iteration of a loop body (nil: an empty one); done
// reports a break.
func runLoopBody(cs *cstate, body cstmt) (done bool, err error) {
	if body == nil {
		return false, nil
	}
	err = body(cs)
	if sig, ok := err.(ctrlSignal); ok {
		switch sig {
		case ctrlBreak:
			return true, nil
		case ctrlContinue:
			return false, nil
		}
	}
	return false, err
}

// compileExprStmt compiles an expression statement: a call, or a bare
// operand or operation name (BEHAVIOR { Instruction }). Any other
// expression has no effect.
func (c *compiler) compileExprStmt(e ast.Expr) cstmt {
	kind, name, index := ast.RefNone, "", 0
	switch ex := e.(type) {
	case *ast.Ident:
		kind, name, index = ex.Kind, ex.Name, ex.Index
	case *ast.CallExpr:
		kind, name, index = ex.Kind, ex.Name, ex.Index
		switch ex.Kind {
		case ast.RefPipe:
			pd, stage, op := c.x.M.Pipelines[ex.Pipe.Pipe], ex.Pipe.Stage, pipeline.Op(ex.Pipe.Op)
			return func(cs *cstate) error {
				if cs.x.Ctx == nil {
					return fmt.Errorf("%s: pipeline operation %s outside simulation context", ex.Pos, ex.Name)
				}
				return cs.x.Ctx.PipeOp(pd, stage, op)
			}
		case ast.RefPrint:
			args := make([]texpr, len(ex.Args))
			for i, a := range ex.Args {
				if _, str := a.(*ast.StrLit); !str {
					args[i] = c.compileExpr(a)
				}
			}
			return func(cs *cstate) error {
				if cs.x.Ctx != nil {
					cs.x.Ctx.Print(formatPrint(ex.Args, func(i int) string {
						return decimal(args[i].fn()(cs), args[i].w, args[i].signed)
					}))
				}
				return nil
			}
		}
	}
	switch kind {
	case ast.RefOperand:
		child := c.in.Bindings[name]
		return func(cs *cstate) error { return cs.x.callInstance(child) }
	case ast.RefOperation:
		// An operation called by name runs as its static instance, bound
		// here once.
		op := c.x.M.OpList[index]
		if c.x.Static != nil {
			if target := c.x.Static(op); target != nil {
				return func(cs *cstate) error { return cs.x.callInstance(target) }
			}
		}
		return func(cs *cstate) error { return cs.x.callOperation(op) }
	}
	return nil
}
