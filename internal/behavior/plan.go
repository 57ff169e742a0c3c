package behavior

import (
	"golisa/internal/ast"
	"golisa/internal/model"
	"golisa/internal/pipeline"
)

// ActKind classifies one step of a bound activation plan.
type ActKind uint8

// Activation step kinds, one per ACTIVATION item form.
const (
	ActRun    ActKind = iota // activate Target
	ActPipe                  // pipeline operation PipeOp on Pipe/Stage
	ActIf                    // Then when the condition holds, Else otherwise
	ActSwitch                // the items ActChoose selects
)

// ActStep is one ACTIVATION item of a bound instance, with sema's
// bindings applied: targets are instances, pipelines indices and pipeline
// operations pipeline.Op values. Prebound engines compile the conditions
// too, so walking a plan looks up no name at all.
type ActStep struct {
	Kind  ActKind
	Delay int // extra control steps (the ';' operator)

	// Target is the activated instance, or nil when Op's unbound instance
	// was unknown at bind time (the simulator then resolves it).
	Target *model.Instance
	Op     *model.Operation

	Pipe   int // index into Model.Pipelines
	Stage  int // -1: the whole pipeline
	PipeOp pipeline.Op

	Then, Else []ActStep // ActIf branches

	guard []int     // the resources cond names (hazard attribution)
	cond  actExpr   // ActIf condition or ActSwitch tag
	cases []actCase // ActSwitch non-default cases
	deflt []ActStep // ActSwitch default items
}

// actCase is one non-default case of an ActSwitch step.
type actCase struct {
	vals  []actExpr
	items []ActStep
}

// actExpr is an activation expression. f, its compiled closure, is nil
// in the engines that interpret behavior, and for an expression with a
// node of no static type. A switch's case value compiles to tag == value.
type actExpr struct {
	e ast.Expr
	f cexpr
}

// Guard returns the ids of the resources the step's condition or switch
// tag names (hazard attribution).
func (st *ActStep) Guard() []int { return st.guard }

// BindActivation resolves in's ACTIVATION section (nil when it has none)
// for the engines that interpret behavior: conditions stay ASTs.
func BindActivation(x *Exec, in *model.Instance) []ActStep {
	if in.Variant.Activation == nil {
		return nil
	}
	return bindActs(x, in, in.Variant.Activation.Items, nil)
}

// bindActs binds one activation list of in; with a compiler, the
// conditions, switch tags and case values are compiled as well.
func bindActs(x *Exec, in *model.Instance, items []ast.ActItem, c *compiler) []ActStep {
	if len(items) == 0 {
		return nil
	}
	steps := make([]ActStep, len(items))
	for i, item := range items {
		st := &steps[i]
		switch it := item.(type) {
		case *ast.ActRef:
			st.Kind, st.Delay = ActRun, it.Delay
			if it.Kind == ast.RefOperand {
				st.Target = in.Bindings[it.Name]
			} else if st.Op = x.M.OpList[it.Index]; x.Static != nil {
				st.Target = x.Static(st.Op)
			}
		case *ast.ActPipeOp:
			st.Kind, st.Delay = ActPipe, it.Delay
			st.Pipe, st.Stage, st.PipeOp = it.Ref.Pipe, it.Ref.Stage, pipeline.Op(it.Ref.Op)
		case *ast.ActIf:
			st.Kind, st.guard = ActIf, it.Guard
			st.cond = c.bindExpr(it.Cond, nil)
			st.Then, st.Else = bindActs(x, in, it.Then, c), bindActs(x, in, it.Else, c)
		case *ast.ActSwitch:
			st.Kind, st.guard = ActSwitch, it.Guard
			st.cond = c.bindExpr(it.Tag, nil)
			for j := range it.Cases {
				ac := &it.Cases[j]
				items := bindActs(x, in, ac.Items, c)
				if ac.Default {
					st.deflt = items // the last default wins
					continue
				}
				cc := actCase{items: items}
				for _, v := range ac.Vals {
					cc.vals = append(cc.vals, c.bindExpr(v, it.Tag))
				}
				st.cases = append(st.cases, cc)
			}
		}
	}
	return steps
}

// bindExpr compiles an activation expression, or, given a switch's tag,
// the case value e as tag == e; a nil compiler (the interpreting engines)
// compiles nothing.
func (c *compiler) bindExpr(e, tag ast.Expr) actExpr {
	if c == nil {
		return actExpr{e: e}
	}
	c.acts++
	c.untyped = false
	v := c.compileExpr(e)
	if tag != nil {
		v = binary("==", c.compileExpr(tag), v)
	}
	if c.untyped {
		return actExpr{e: e}
	}
	return actExpr{e, v.fn()}
}

// ActCond evaluates an ActIf step's condition in the context of in.
func (x *Exec) ActCond(in *model.Instance, st *ActStep) bool {
	return x.evalAct(in, st.cond) != 0
}

// ActChoose evaluates an ActSwitch step: the items of the first case with
// a value equal to the tag (as == compares them), else the default's (nil
// when there is none).
func (x *Exec) ActChoose(in *model.Instance, st *ActStep) []ActStep {
	var tag val // the interpreted tag, evaluated at most once
	tagged := false
	for _, c := range st.cases {
		for _, ae := range c.vals {
			if ae.f != nil {
				if x.evalAct(in, ae) != 0 {
					return c.items
				}
				continue
			}
			if !tagged {
				tag, tagged = x.eval(&frame{inst: in}, st.cond.e), true
			}
			if equal(tag, x.eval(&frame{inst: in}, ae.e)) {
				return c.items
			}
		}
	}
	return st.deflt
}

// evalAct evaluates a compiled activation expression's payload, or an
// interpreted one's truth.
func (x *Exec) evalAct(in *model.Instance, ae actExpr) uint64 {
	if ae.f == nil {
		return b2u(x.eval(&frame{inst: in}, ae.e).bool())
	}
	// Activation expressions declare no locals, so one frame serves all.
	x.actFrame.x = x
	return ae.f(&x.actFrame)
}
