package behavior

import (
	"fmt"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
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

// ActStep is one ACTIVATION item of a bound instance with every name
// resolved: targets to instances, pipelines to indices and pipeline
// operations to pipeline.Op. Prebound engines compile the conditions too,
// so walking a plan looks up no name at all.
type ActStep struct {
	Kind  ActKind
	Delay int   // extra control steps (the ';' operator)
	Err   error // resolution failure, reported when a run reaches the step

	// Target is the activated instance, or nil when Op's unbound instance
	// was unknown at bind time (the simulator then resolves it).
	Target *model.Instance
	Op     *model.Operation

	Pipe   int // index into Model.Pipelines
	Stage  int // -1: the whole pipeline
	PipeOp pipeline.Op

	Then, Else []ActStep // ActIf branches

	guard []*model.Resource // the resources cond reads (hazard attribution)
	cond  actExpr           // ActIf condition or ActSwitch tag
	cases []actCase         // ActSwitch non-default cases
	deflt []ActStep         // ActSwitch default items
}

// actCase is one non-default case of an ActSwitch step.
type actCase struct {
	vals  []actExpr
	items []ActStep
}

// actExpr is an activation expression; f, its compiled closure, is nil in
// the engines that interpret behavior.
type actExpr struct {
	e ast.Expr
	f cexpr
}

// Guard returns the resources the step's condition or switch tag reads
// (hazard attribution). Plans bound for an interpreting engine carry
// them only while an observer is attached.
func (st *ActStep) Guard() []*model.Resource { return st.guard }

// BindActivation resolves in's ACTIVATION section (nil when it has none)
// for the engines that interpret behavior: conditions stay ASTs.
func BindActivation(x *Exec, in *model.Instance) []ActStep {
	if in.Variant.Activation == nil {
		return nil
	}
	return bindActs(x, in, in.Variant.Activation.Items, nil)
}

// bindActs resolves one activation list of in; with a compiler, the
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
			if child, ok := in.Bindings[it.Name]; ok {
				st.Target = child
			} else if st.Op = x.M.Ops[it.Name]; st.Op == nil {
				st.Err = fmt.Errorf("activation of unknown operation %s", it.Name)
			} else if x.Static != nil {
				st.Target = x.Static(st.Op)
			}
		case *ast.ActPipeOp:
			st.Kind, st.Delay, st.Stage = ActPipe, it.Delay, -1
			pd := x.M.Pipeline(it.Pipe)
			op, ok := pipeline.ParseOp(it.Op)
			if pd == nil || !ok {
				st.Err = fmt.Errorf("unknown pipeline operation %s.%s", it.Pipe, it.Op)
				break
			}
			st.Pipe, st.PipeOp = pd.Index, op
			if it.Stage != "" {
				st.Stage = pd.StageIndex(it.Stage)
			}
		case *ast.ActIf:
			st.Kind = ActIf
			st.cond, st.Err = c.bindExpr(it.Cond)
			st.guard = c.bindGuard(x, it.Cond)
			st.Then, st.Else = bindActs(x, in, it.Then, c), bindActs(x, in, it.Else, c)
		case *ast.ActSwitch:
			st.Kind = ActSwitch
			st.cond, st.Err = c.bindExpr(it.Tag)
			st.guard = c.bindGuard(x, it.Tag)
			for j := range it.Cases {
				ac := &it.Cases[j]
				items := bindActs(x, in, ac.Items, c)
				if ac.Default {
					st.deflt = items // the last default wins
					continue
				}
				cc := actCase{items: items}
				for _, v := range ac.Vals {
					ae, err := c.bindExpr(v)
					if st.Err == nil {
						st.Err = err
					}
					cc.vals = append(cc.vals, ae)
				}
				st.cases = append(st.cases, cc)
			}
		}
	}
	return steps
}

// bindExpr compiles an activation expression; a nil compiler (the
// interpreting engines) compiles nothing.
func (c *compiler) bindExpr(e ast.Expr) (actExpr, error) {
	if c == nil {
		return actExpr{e: e}, nil
	}
	f, err := c.compileExpr(e)
	if err == nil {
		c.acts++
	}
	return actExpr{e, f}, err
}

// bindGuard resolves the resources a condition reads: always when the
// plan is compiled, and for the interpreting engines only while an
// observer needs them.
func (c *compiler) bindGuard(x *Exec, e ast.Expr) []*model.Resource {
	if c == nil && x.Obs == nil {
		return nil
	}
	return x.guardOf(e)
}

// ActCond evaluates an ActIf step's condition in the context of in.
func (x *Exec) ActCond(in *model.Instance, st *ActStep) (bool, error) {
	v, err := x.evalAct(in, st.cond)
	return v.Bool(), err
}

// ActChoose evaluates an ActSwitch step: the items of the first case with
// a value equal to the tag, else the default's (nil when there is none).
func (x *Exec) ActChoose(in *model.Instance, st *ActStep) ([]ActStep, error) {
	tag, err := x.evalAct(in, st.cond)
	if err != nil {
		return nil, err
	}
	for _, c := range st.cases {
		for _, ae := range c.vals {
			v, err := x.evalAct(in, ae)
			if err != nil {
				return nil, err
			}
			if v.Uint() == tag.Uint() {
				return c.items, nil
			}
		}
	}
	return st.deflt, nil
}

func (x *Exec) evalAct(in *model.Instance, ae actExpr) (bitvec.Value, error) {
	if ae.f == nil {
		return x.EvalValue(in, ae.e)
	}
	// Activation expressions declare no locals, so one frame serves all.
	x.actFrame.x = x
	v, err := ae.f(&x.actFrame)
	return v.v, err
}
