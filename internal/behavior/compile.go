package behavior

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// This file implements the pre-binding behavior compiler used by the
// compiled simulator: each bound instance's behavior is translated once
// into a tree of Go closures with all names resolved — locals become slot
// indices, decoded label fields become constants, operand bindings become
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

type cexpr func(*cstate) (val, error)

// cref is a compiled lvalue.
type cref struct {
	get func(*cstate) val
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
	cb, err := compiledFor(x, in)
	if err != nil {
		return nil, err
	}
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
	err = cb.body(st)
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
func compiledFor(x *Exec, in *model.Instance) (*compiledBehavior, error) {
	if x.Shared != nil {
		if cb, ok := x.Shared.behaviors[in]; ok {
			return cb, nil
		}
	}
	if cb, ok := x.compiled[in]; ok {
		return cb, nil
	}
	cb, n, err := compileInstance(x, in)
	if err != nil {
		return nil, err
	}
	if x.compiled == nil {
		x.compiled = map[*model.Instance]*compiledBehavior{}
	}
	x.compiled[in] = cb
	x.Compiles += n
	return cb, nil
}

// compileInstance compiles in's behavior and binds its activation plan. n
// counts the closures compiled: the behavior plus every activation
// condition, switch tag and case value.
func compileInstance(x *Exec, in *model.Instance) (cb *compiledBehavior, n uint64, err error) {
	c := &compiler{x: x, in: in}
	cb = &compiledBehavior{}
	if in.Variant.Behavior != nil {
		if cb.body, err = c.compileBlock(in.Variant.Behavior.Body); err != nil {
			return nil, 0, err
		}
		cb.nslots = c.maxSlots
	}
	if in.Variant.Activation != nil {
		c.push()
		cb.plan = bindActs(x, in, in.Variant.Activation.Items, c)
	}
	return cb, 1 + c.acts, nil
}

// compiler tracks compile-time scope for one behavior body.
type compiler struct {
	x  *Exec
	in *model.Instance

	scopes   []map[string]compLocal
	nextSlot int
	maxSlots int
	acts     uint64 // activation expressions compiled
}

type compLocal struct {
	slot int
	typ  ast.TypeSpec
}

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]compLocal{}) }

func (c *compiler) pop() {
	top := c.scopes[len(c.scopes)-1]
	c.nextSlot -= len(top)
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *compiler) declare(name string, typ ast.TypeSpec) (int, error) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return 0, fmt.Errorf("redeclared local %s", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	if c.nextSlot > c.maxSlots {
		c.maxSlots = c.nextSlot
	}
	top[name] = compLocal{slot: slot, typ: typ}
	return slot, nil
}

func (c *compiler) lookup(name string) (compLocal, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if l, ok := c.scopes[i][name]; ok {
			return l, true
		}
	}
	return compLocal{}, false
}

// --- statements ---------------------------------------------------------------

func (c *compiler) compileBlock(b *ast.Block) (cstmt, error) {
	c.push()
	defer c.pop()
	stmts := make([]cstmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		cs, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, cs)
	}
	return func(st *cstate) error {
		for _, s := range stmts {
			if err := s(st); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (c *compiler) compileStmt(s ast.Stmt) (cstmt, error) {
	switch st := s.(type) {
	case *ast.Block:
		return c.compileBlock(st)
	case *ast.EmptyStmt:
		return func(*cstate) error { return nil }, nil
	case *ast.DeclStmt:
		var init cexpr
		if st.Init != nil {
			var err error
			init, err = c.compileExpr(st.Init)
			if err != nil {
				return nil, err
			}
		}
		slot, err := c.declare(st.Name, st.Type)
		if err != nil {
			return nil, err
		}
		typ := st.Type
		return func(cs *cstate) error {
			v := bitvec.New(0, typ.Width)
			if init != nil {
				iv, err := init(cs)
				if err != nil {
					return err
				}
				v = convert(iv, typ)
			}
			cs.locals[slot] = v
			return nil
		}, nil
	case *ast.ExprStmt:
		return c.compileExprStmt(st)
	case *ast.AssignStmt:
		return c.compileAssign(st)
	case *ast.IncDecStmt:
		ref, err := c.compileRef(st.X)
		if err != nil {
			return nil, err
		}
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
		}, nil
	case *ast.IfStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmt(st.Then)
		if err != nil {
			return nil, err
		}
		var els cstmt
		if st.Else != nil {
			els, err = c.compileStmt(st.Else)
			if err != nil {
				return nil, err
			}
		}
		guard := c.x.guardOf(st.Cond)
		return func(cs *cstate) error {
			cv, err := cond(cs)
			if err != nil {
				return err
			}
			body := then
			if !cv.bool() {
				body = els
			}
			if body == nil {
				return nil
			}
			// Mirror the interpreter's guard tracking exactly, so both
			// engines attribute hazards identically (replay determinism).
			track := cs.x.Obs != nil
			if track {
				cs.x.guards = append(cs.x.guards, guard)
			}
			err = body(cs)
			if track {
				cs.x.guards = cs.x.guards[:len(cs.x.guards)-1]
			}
			return err
		}, nil
	case *ast.WhileStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.compileStmt(st.Body)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				cv, err := cond(cs)
				if err != nil {
					return err
				}
				if !cv.bool() {
					return nil
				}
				done, err := runLoopBody(cs, body)
				if err != nil || done {
					return err
				}
			}
		}, nil
	case *ast.DoWhileStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.compileStmt(st.Body)
		if err != nil {
			return nil, err
		}
		return func(cs *cstate) error {
			for {
				if err := cs.x.budget(); err != nil {
					return err
				}
				done, err := runLoopBody(cs, body)
				if err != nil || done {
					return err
				}
				cv, err := cond(cs)
				if err != nil {
					return err
				}
				if !cv.bool() {
					return nil
				}
			}
		}, nil
	case *ast.ForStmt:
		c.push()
		defer c.pop()
		var init, post cstmt
		var cond cexpr
		var err error
		if st.Init != nil {
			if init, err = c.compileStmt(st.Init); err != nil {
				return nil, err
			}
		}
		if st.Cond != nil {
			if cond, err = c.compileExpr(st.Cond); err != nil {
				return nil, err
			}
		}
		if st.Post != nil {
			if post, err = c.compileStmt(st.Post); err != nil {
				return nil, err
			}
		}
		body, err := c.compileStmt(st.Body)
		if err != nil {
			return nil, err
		}
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
				if cond != nil {
					cv, err := cond(cs)
					if err != nil {
						return err
					}
					if !cv.bool() {
						return nil
					}
				}
				done, err := runLoopBody(cs, body)
				if err != nil || done {
					return err
				}
				if post != nil {
					if err := post(cs); err != nil {
						return err
					}
				}
			}
		}, nil
	case *ast.SwitchStmt:
		tag, err := c.compileExpr(st.Tag)
		if err != nil {
			return nil, err
		}
		type ccase struct {
			vals  []cexpr
			body  cstmt
			deflt bool
		}
		cases := make([]ccase, 0, len(st.Cases))
		for i := range st.Cases {
			sc := &st.Cases[i]
			cc := ccase{deflt: sc.Default}
			for _, v := range sc.Vals {
				cv, err := c.compileExpr(v)
				if err != nil {
					return nil, err
				}
				cc.vals = append(cc.vals, cv)
			}
			c.push()
			stmts := make([]cstmt, 0, len(sc.Stmts))
			for _, bs := range sc.Stmts {
				cs2, err := c.compileStmt(bs)
				if err != nil {
					c.pop()
					return nil, err
				}
				stmts = append(stmts, cs2)
			}
			c.pop()
			cc.body = func(cs *cstate) error {
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
			cases = append(cases, cc)
		}
		guard := c.x.guardOf(st.Tag)
		return func(cs *cstate) error {
			tv, err := tag(cs)
			if err != nil {
				return err
			}
			// Runs a case body with the switch tag on the guard stack,
			// mirroring the interpreter (see execGuardedCase).
			guarded := func(body cstmt) error {
				track := cs.x.Obs != nil
				if track {
					cs.x.guards = append(cs.x.guards, guard)
				}
				err := body(cs)
				if track {
					cs.x.guards = cs.x.guards[:len(cs.x.guards)-1]
				}
				return err
			}
			var deflt cstmt
			for i := range cases {
				cc := &cases[i]
				if cc.deflt {
					deflt = cc.body
					continue
				}
				for _, vf := range cc.vals {
					vv, err := vf(cs)
					if err != nil {
						return err
					}
					if vv.v.Uint() == tv.v.Uint() {
						return guarded(cc.body)
					}
				}
			}
			if deflt != nil {
				return guarded(deflt)
			}
			return nil
		}, nil
	case *ast.BreakStmt:
		return func(*cstate) error { return ctrlBreak }, nil
	case *ast.ContinueStmt:
		return func(*cstate) error { return ctrlContinue }, nil
	case *ast.ReturnStmt:
		var x cexpr
		var err error
		if st.X != nil {
			if x, err = c.compileExpr(st.X); err != nil {
				return nil, err
			}
		}
		return func(cs *cstate) error {
			if x != nil {
				if _, err := x(cs); err != nil {
					return err
				}
			}
			return ctrlReturn
		}, nil
	default:
		return nil, fmt.Errorf("unhandled statement %T", s)
	}
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

func (c *compiler) compileAssign(st *ast.AssignStmt) (cstmt, error) {
	ref, err := c.compileRef(st.LHS)
	if err != nil {
		return nil, err
	}
	rhs, err := c.compileExpr(st.RHS)
	if err != nil {
		return nil, err
	}
	if st.Op == "=" {
		return func(cs *cstate) error {
			v, err := rhs(cs)
			if err != nil {
				return err
			}
			ref.set(cs, v.v)
			return nil
		}, nil
	}
	op, err := binopFor(st.Op[:len(st.Op)-1])
	if err != nil {
		return nil, err
	}
	return func(cs *cstate) error {
		v, err := rhs(cs)
		if err != nil {
			return err
		}
		ref.set(cs, op(ref.get(cs), v).v)
		return nil
	}, nil
}

// compileExprStmt handles bare-identifier dispatch (BEHAVIOR { Instruction })
// and ordinary expression statements.
func (c *compiler) compileExprStmt(st *ast.ExprStmt) (cstmt, error) {
	if id, ok := st.X.(*ast.Ident); ok {
		if _, isLocal := c.lookup(id.Name); !isLocal {
			if _, isLabel := c.in.Labels[id.Name]; !isLabel {
				if child, ok := c.in.Bindings[id.Name]; ok {
					return func(cs *cstate) error { return cs.x.callInstance(child) }, nil
				}
				if op, ok := c.x.M.Ops[id.Name]; ok {
					return func(cs *cstate) error { return cs.x.callOperation(op) }, nil
				}
			}
		}
	}
	e, err := c.compileExpr(st.X)
	if err != nil {
		return nil, err
	}
	return func(cs *cstate) error {
		_, err := e(cs)
		return err
	}, nil
}
