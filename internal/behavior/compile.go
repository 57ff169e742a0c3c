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
// into a tree of Go closures over sema's bindings — locals are slots,
// decoded label fields become constants, operand bindings become
// directly-compiled EXPRESSION accessors, and resources become pointers.
// Re-executing an instruction then runs straight-line closures with no name
// lookup and no AST walk, which is the Go analog of the paper's compiled
// simulation technique (translating the program to host code).

// compiledBehavior is the executable form of one bound instance: its
// behavior closure (nil when it has no behavior) and its activation plan.
type compiledBehavior struct {
	body   cstmt
	nslots int
	plan   []ActStep
}

// cstate is the per-execution state of compiled code.
type cstate struct {
	x      *Exec
	locals []bitvec.Value
}

type cstmt func(*cstate) error

type cexpr func(*cstate) val

// cref is a compiled assignment target.
type cref struct {
	get cexpr
	set func(*cstate, bitvec.Value)
}

// RunCompiled executes the instance's behavior through its compiled closure,
// compiling on first use, and returns the instance's bound activation plan.
// The compiled form is cached keyed by instance identity (instances are
// immutable once bound). Like Exec.Run, every call gets a fresh statement
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
	if cb.body == nil {
		return cb.plan, nil
	}
	if x.depth == len(x.frames) {
		x.frames = append(x.frames, &cstate{x: x})
	}
	st := x.frames[x.depth]
	if cap(st.locals) < cb.nslots {
		st.locals = make([]bitvec.Value, cb.nslots)
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

// compiledFor returns the compiled form of in. When a shared pre-compiled
// set is attached it is consulted first (and never written), keeping
// engines that share one artifact race-free; misses compile into the
// engine's private cache.
func compiledFor(x *Exec, in *model.Instance) *compiledBehavior {
	if x.Shared != nil {
		if cb, ok := x.Shared.behaviors[in]; ok {
			return cb
		}
	}
	if cb, ok := x.compiled[in]; ok {
		return cb
	}
	cb, n := compileInstance(x, in)
	if x.compiled == nil {
		x.compiled = map[*model.Instance]*compiledBehavior{}
	}
	x.compiled[in] = cb
	x.Compiles += n
	return cb
}

// compileInstance compiles in's behavior and binds its activation plan. n
// counts the closures compiled: the behavior plus every activation
// condition, switch tag and case value.
func compileInstance(x *Exec, in *model.Instance) (cb *compiledBehavior, n uint64) {
	c := &compiler{x: x, in: in}
	cb = &compiledBehavior{}
	if b := in.Variant.Behavior; b != nil {
		cb.body, cb.nslots = c.compileBlock(b.Body), b.Slots
	}
	if a := in.Variant.Activation; a != nil {
		cb.plan = bindActs(x, in, a.Items, c)
	}
	return cb, 1 + c.acts
}

// compiler compiles the code of one bound instance.
type compiler struct {
	x    *Exec
	in   *model.Instance
	acts uint64 // activation expressions compiled
}

// --- statements ---------------------------------------------------------------

func (c *compiler) compileBlock(b *ast.Block) cstmt {
	stmts := make([]cstmt, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = c.compileStmt(s)
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

func (c *compiler) compileStmt(s ast.Stmt) cstmt {
	switch st := s.(type) {
	case *ast.Block:
		return c.compileBlock(st)
	case *ast.DeclStmt:
		slot, typ := st.Slot, st.Type
		if st.Init == nil {
			return func(cs *cstate) error {
				cs.locals[slot] = bitvec.New(0, typ.Width)
				return nil
			}
		}
		init := c.compileExpr(st.Init)
		return func(cs *cstate) error {
			cs.locals[slot] = convert(init(cs), typ)
			return nil
		}
	case *ast.ExprStmt:
		return c.compileExprStmt(st.X)
	case *ast.AssignStmt:
		ref, rhs := c.compileRef(st.LHS), c.compileExpr(st.RHS)
		if st.Op == "=" {
			return func(cs *cstate) error {
				ref.set(cs, rhs(cs).v)
				return nil
			}
		}
		op := binopFor(st.Op[:len(st.Op)-1])
		return func(cs *cstate) error {
			v := rhs(cs)
			ref.set(cs, op(ref.get(cs), v).v)
			return nil
		}
	case *ast.IncDecStmt:
		ref := c.compileRef(st.X)
		inc := st.Op == "++"
		return func(cs *cstate) error {
			cur := ref.get(cs)
			one := bitvec.New(1, cur.v.Width())
			if inc {
				ref.set(cs, bitvec.Add(cur.v, one))
			} else {
				ref.set(cs, bitvec.Sub(cur.v, one))
			}
			return nil
		}
	case *ast.IfStmt:
		cond, then := c.compileExpr(st.Cond), c.compileStmt(st.Then)
		var els cstmt
		if st.Else != nil {
			els = c.compileStmt(st.Else)
		}
		guard := st.Guard
		return func(cs *cstate) error {
			body := then
			if !cond(cs).bool() {
				body = els
			}
			if body == nil {
				return nil
			}
			return runGuarded(cs, guard, body)
		}
	case *ast.WhileStmt:
		cond, body := c.compileExpr(st.Cond), c.compileStmt(st.Body)
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				if !cond(cs).bool() {
					return nil
				}
				if done, err := runLoopBody(cs, body); err != nil || done {
					return err
				}
			}
		}
	case *ast.DoWhileStmt:
		body, cond := c.compileStmt(st.Body), c.compileExpr(st.Cond)
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				if done, err := runLoopBody(cs, body); err != nil || done {
					return err
				}
				if !cond(cs).bool() {
					return nil
				}
			}
		}
	case *ast.ForStmt:
		var init, post cstmt
		var cond cexpr
		if st.Init != nil {
			init = c.compileStmt(st.Init)
		}
		if st.Cond != nil {
			cond = c.compileExpr(st.Cond)
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
				if cond != nil && !cond(cs).bool() {
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
	default: // *ast.EmptyStmt
		return func(*cstate) error { return nil }
	}
}

func (c *compiler) compileSwitch(st *ast.SwitchStmt) cstmt {
	type ccase struct {
		vals []cexpr
		body cstmt
	}
	var cases []ccase
	var deflt cstmt
	for i := range st.Cases {
		sc := &st.Cases[i]
		stmts := make([]cstmt, len(sc.Stmts))
		for j, s := range sc.Stmts {
			stmts[j] = c.compileStmt(s)
		}
		body := func(cs *cstate) error {
			for _, s := range stmts {
				err := s(cs)
				if sig, ok := err.(ctrlSignal); ok && sig == ctrlBreak {
					return nil
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		if sc.Default {
			deflt = body // the last default wins
			continue
		}
		cc := ccase{body: body}
		for _, v := range sc.Vals {
			cc.vals = append(cc.vals, c.compileExpr(v))
		}
		cases = append(cases, cc)
	}
	tag, guard := c.compileExpr(st.Tag), st.Guard
	return func(cs *cstate) error {
		tv := tag(cs).v.Uint()
		for i := range cases {
			for _, vf := range cases[i].vals {
				if vf(cs).v.Uint() == tv {
					return runGuarded(cs, guard, cases[i].body)
				}
			}
		}
		if deflt != nil {
			return runGuarded(cs, guard, deflt)
		}
		return nil
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

func runLoopBody(cs *cstate, body cstmt) (done bool, err error) {
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
			args := make([]cexpr, len(ex.Args))
			for i, a := range ex.Args {
				if _, str := a.(*ast.StrLit); !str {
					args[i] = c.compileExpr(a)
				}
			}
			return func(cs *cstate) error {
				if cs.x.Ctx != nil {
					cs.x.Ctx.Print(formatPrint(ex.Args, func(i int) val { return args[i](cs) }))
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
		op := c.x.M.OpList[index]
		return func(cs *cstate) error { return cs.x.callOperation(op) }
	}
	return func(*cstate) error { return nil }
}
