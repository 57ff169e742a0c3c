// Package behavior executes the C-subset behavior language of LISA
// operations: an AST-walking interpreter (the interpretive simulator's
// engine) and a pre-binding closure compiler (the compiled simulator's
// engine, see compile.go).
//
// Execution happens in the context of a bound model.Instance. Sema binds
// every name once, at load (internal/sema/resolve.go), so neither engine
// looks one up: a local is a slot of the frame, a label a decoded field of
// the instance, an operand one of its bindings (read and written through
// the child's EXPRESSION section), a resource an index into the model.
// Calls are statements, so expressions cannot fail: only a statement
// returns an error.
package behavior

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
	"golisa/internal/pipeline"
	"golisa/internal/trace"
)

// Context supplies the simulator hooks available to behavior code.
// Implementations live in internal/sim; a nil Context rejects pipeline
// operations and discards prints.
type Context interface {
	// PipeOp performs a pipeline built-in; stage is -1 for whole-pipeline
	// operations.
	PipeOp(p *model.Pipeline, stage int, op pipeline.Op) error
	// Print emits model output (the print(...) builtin).
	Print(s string)
	// CallOp executes a named operation called from behavior code. The
	// simulator implements the full execute path (decode for coding roots,
	// behavior, activation) in the caller's control step.
	CallOp(op *model.Operation) error
	// CallInstance executes a bound group/reference instance called from
	// behavior code.
	CallInstance(in *model.Instance) error
}

// val is a runtime value: bit-accurate payload plus signedness, which
// drives comparisons, division, right shift and widening.
type val struct {
	v      bitvec.Value
	signed bool
}

func (x val) bool() bool { return x.v.Bool() }

// Exec is an execution engine bound to one model and one machine state.
type Exec struct {
	M   *model.Model
	S   *model.State
	Ctx Context

	// Budget bounds the loop iterations executed per Run call to turn
	// runaway model loops into errors instead of hangs: every pass of a
	// while, do or for loop counts, in the interpreter and in the
	// compiled closures alike. Zero means the default of 1<<22.
	Budget int

	// Obs, when non-nil, receives per-operation behavior statement counts
	// (OnBehavior) for cycle attribution. Nil costs one comparison per Run.
	Obs trace.Observer

	// Shared, when non-nil, is the read-only set of behavior closures
	// pre-compiled at artifact build time (see sim.Artifact), which hang
	// off the artifact's instances. The engine then never writes to an
	// instance: what the set lacks compiles into a private cache, so
	// engines sharing one set never write to shared memory.
	Shared *CompiledSet

	// Compiles counts closures compiled by this engine at run time.
	// Pre-compiled shared closures do not count; a fully pre-warmed
	// artifact therefore keeps this at zero across a whole run, which the
	// fleet's zero-recompilation assertion checks.
	Compiles uint64

	// Static, when non-nil, returns the unbound instance of an operation;
	// activation plans bind named (non-operand) targets through it.
	Static func(*model.Operation) *model.Instance

	steps    int    // loop iterations this Run charged against Budget
	stmts    uint64 // monotonically increasing statement counter (tracing)
	compiled map[*model.Instance]*compiledBehavior

	// Reused compiled-code frames: one per behavior call depth, plus the
	// one activation expressions evaluate in.
	frames   []*cstate
	depth    int
	actFrame cstate

	// guards is the stack of the conditions enclosing the statement
	// currently executing (if conditions, switch tags), each as the
	// resources it names, maintained only while an observer is attached.
	// The simulator reads it to classify pipeline stall/flush requests
	// made from behavior code.
	guards [][]int
}

// Guards returns the live stack of the conditions guarding the currently
// executing statement, outermost first, each as the ids of the resources
// it names (ast.IfStmt.Guard). The slice is owned by the engine and must
// not be retained. It is populated only while Obs is non-nil (hazard
// attribution needs an observer to deliver to).
func (x *Exec) Guards() [][]int { return x.guards }

// control-flow signals, threaded as errors.
type ctrlSignal int

const (
	ctrlBreak ctrlSignal = iota
	ctrlContinue
	ctrlReturn
)

func (c ctrlSignal) Error() string {
	switch c {
	case ctrlBreak:
		return "break outside loop"
	case ctrlContinue:
		return "continue outside loop"
	default:
		return "return"
	}
}

// frame is one behavior invocation's environment: the bound instance and
// the local-variable slots sema numbered.
type frame struct {
	inst   *model.Instance
	locals []bitvec.Value
}

// Run executes the BEHAVIOR section of the instance's resolved variant.
// Instances without behavior are a no-op.
func (x *Exec) Run(in *model.Instance) error {
	x.steps = 0
	if x.Obs == nil {
		return x.runBehavior(in)
	}
	start := x.stmts
	err := x.runBehavior(in)
	// Statement counts are inclusive of operations called directly from
	// behavior code (which re-enter Run and report themselves too).
	if d := x.stmts - start; d > 0 {
		x.Obs.OnBehavior(in.Op.Index, d)
	}
	return err
}

func (x *Exec) runBehavior(in *model.Instance) error {
	v := in.Variant
	if v == nil {
		if err := in.ResolveVariant(); err != nil {
			return err
		}
		v = in.Variant
	}
	if v.Behavior == nil {
		return nil
	}
	f := &frame{inst: in, locals: make([]bitvec.Value, v.Behavior.Slots)}
	err := x.execBlock(f, v.Behavior.Body)
	if sig, ok := err.(ctrlSignal); ok && sig == ctrlReturn {
		return nil
	}
	return err
}

// budget charges one loop iteration against the budget.
func (x *Exec) budget() error {
	x.steps++
	x.stmts++
	limit := x.Budget
	if limit == 0 {
		limit = 1 << 22
	}
	if x.steps > limit {
		return fmt.Errorf("behavior execution exceeded %d loop iterations (runaway loop?)", limit)
	}
	return nil
}

func (x *Exec) execBlock(f *frame, b *ast.Block) error {
	for _, s := range b.Stmts {
		if err := x.execStmt(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (x *Exec) execStmt(f *frame, s ast.Stmt) error {
	x.stmts++
	switch st := s.(type) {
	case *ast.Block:
		return x.execBlock(f, st)
	case *ast.EmptyStmt:
		return nil
	case *ast.DeclStmt:
		init := bitvec.New(0, st.Type.Width)
		if st.Init != nil {
			init = convert(x.eval(f, st.Init), st.Type)
		}
		f.locals[st.Slot] = init
		return nil
	case *ast.ExprStmt:
		return x.execExpr(f, st.X)
	case *ast.AssignStmt:
		ref := x.lvalue(f, st.LHS)
		rhs := x.eval(f, st.RHS)
		if st.Op != "=" {
			rhs = binopFor(st.Op[:len(st.Op)-1])(ref.get(), rhs)
		}
		ref.set(rhs.v)
		return nil
	case *ast.IncDecStmt:
		ref := x.lvalue(f, st.X)
		cur := ref.get()
		one := bitvec.New(1, cur.v.Width())
		if st.Op == "++" {
			ref.set(bitvec.Add(cur.v, one))
		} else {
			ref.set(bitvec.Sub(cur.v, one))
		}
		return nil
	case *ast.IfStmt:
		body := st.Then
		if !x.eval(f, st.Cond).bool() {
			body = st.Else
		}
		if body == nil {
			return nil
		}
		return x.guarded(st.Guard, func() error { return x.execStmt(f, body) })
	case *ast.WhileStmt:
		for {
			if err := x.budget(); err != nil {
				return err
			}
			if !x.eval(f, st.Cond).bool() {
				return nil
			}
			if done, err := x.loopBody(f, st.Body); err != nil || done {
				return err
			}
		}
	case *ast.DoWhileStmt:
		for {
			if err := x.budget(); err != nil {
				return err
			}
			if done, err := x.loopBody(f, st.Body); err != nil || done {
				return err
			}
			if !x.eval(f, st.Cond).bool() {
				return nil
			}
		}
	case *ast.ForStmt:
		if st.Init != nil {
			if err := x.execStmt(f, st.Init); err != nil {
				return err
			}
		}
		for {
			if err := x.budget(); err != nil {
				return err
			}
			if st.Cond != nil && !x.eval(f, st.Cond).bool() {
				return nil
			}
			if done, err := x.loopBody(f, st.Body); err != nil || done {
				return err
			}
			if st.Post != nil {
				if err := x.execStmt(f, st.Post); err != nil {
					return err
				}
			}
		}
	case *ast.SwitchStmt:
		tag := x.eval(f, st.Tag)
		var deflt *ast.SwitchCase
		for i := range st.Cases {
			c := &st.Cases[i]
			if c.Default {
				deflt = c
				continue
			}
			for _, ve := range c.Vals {
				if equal(tag, x.eval(f, ve)) {
					return x.guarded(st.Guard, func() error { return x.execCaseBody(f, c) })
				}
			}
		}
		if deflt != nil {
			return x.guarded(st.Guard, func() error { return x.execCaseBody(f, deflt) })
		}
		return nil
	case *ast.BreakStmt:
		return ctrlBreak
	case *ast.ContinueStmt:
		return ctrlContinue
	case *ast.ReturnStmt:
		return ctrlReturn
	default:
		return fmt.Errorf("unhandled statement %T", s)
	}
}

// guarded runs body with a condition's resources on the guard stack, so
// stalls issued inside attribute to them. The stack is kept only while an
// observer is attached, and popped on every exit path, including
// control-flow signals.
func (x *Exec) guarded(guard []int, body func() error) error {
	if x.Obs == nil {
		return body()
	}
	x.guards = append(x.guards, guard)
	err := body()
	x.guards = x.guards[:len(x.guards)-1]
	return err
}

func (x *Exec) execCaseBody(f *frame, c *ast.SwitchCase) error {
	for _, s := range c.Stmts {
		err := x.execStmt(f, s)
		if sig, ok := err.(ctrlSignal); ok && sig == ctrlBreak {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loopBody executes one loop iteration; done reports that a break statement
// requested loop termination.
func (x *Exec) loopBody(f *frame, body ast.Stmt) (done bool, err error) {
	err = x.execStmt(f, body)
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
