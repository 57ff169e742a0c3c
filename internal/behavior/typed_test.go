package behavior

import (
	"os"
	"testing"

	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/models"
	"golisa/internal/parser"
	"golisa/internal/sema"
)

// TestSwitchWidensLikeEquals: a switch matches its tag and a case value
// as == compares them, widened to the wider width. A long -1 tag matches
// the 32-bit case value -1 in BEHAVIOR on both engines and in ACTIVATION.
func TestSwitchWidensLikeEquals(t *testing.T) {
	d, perrs := parser.Parse(compileRegs+`
RESOURCE { REGISTER long q; }
OPERATION hit { BEHAVIOR { ; } }
OPERATION op {
  BEHAVIOR { long l = 0 - 1; switch (l) { case -1: r1 = 1; break; default: r1 = 2; } }
  ACTIVATION { switch (q) { case 1, -1: { hit } default: { } } }
}`, "t")
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	m, errs := sema.Build("t", d)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	for _, compiled := range []bool{false, true} {
		s := model.NewState(m)
		s.Write(m.Resource("q"), bitvec.FromInt(-1, 64))
		x, in := &Exec{M: m, S: s}, model.NewInstance(m.Ops["op"])
		var plan []ActStep
		var err error
		if compiled {
			plan, err = RunCompiled(x, in)
		} else if err = x.Run(in); err == nil {
			plan = BindActivation(x, in)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Read(m.Resource("r1")).Int(); got != 1 {
			t.Errorf("compiled %v: r1 = %d, want 1", compiled, got)
		}
		if chosen := x.ActChoose(in, &plan[0]); len(chosen) != 1 || chosen[0].Op != m.Ops["hit"] {
			t.Errorf("compiled %v: ACTIVATION switch chose %+v, want hit", compiled, chosen)
		}
	}
}

// interpreted reports whether in's compiled form, or one of its
// activation expressions, falls back to the interpreter: a node of its
// code has no static type.
func interpreted(in *model.Instance) bool {
	cb := in.Code.(*compiledBehavior)
	var acts func([]ActStep) bool
	acts = func(steps []ActStep) bool {
		for i := range steps {
			st := &steps[i]
			if (st.Kind == ActIf || st.Kind == ActSwitch) && st.cond.f == nil {
				return true
			}
			for _, c := range st.cases {
				for _, v := range c.vals {
					if v.f == nil {
						return true
					}
				}
				if acts(c.items) {
					return true
				}
			}
			if acts(st.Then) || acts(st.Else) || acts(st.deflt) {
				return true
			}
		}
		return false
	}
	return cb.interp || acts(cb.plan)
}

// TestStockCodeIsTyped pins which path each instance of the stock models
// and hazard16 takes: compiled as sim.Artifact compiles them (the static
// instances, and every coding leaf with its fields all 0 and all ones),
// none falls back to the interpreter.
func TestStockCodeIsTyped(t *testing.T) {
	srcs := map[string]string{}
	for name, src := range models.All {
		srcs[name] = src
	}
	hazard16, err := os.ReadFile("../models/testdata/hazard16.lisa")
	if err != nil {
		t.Fatal(err)
	}
	srcs["hazard16"] = string(hazard16)
	for name, src := range srcs {
		d, perrs := parser.Parse(src, name)
		if len(perrs) > 0 {
			t.Fatal(perrs[0])
		}
		m, errs := sema.Build(name, d)
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		x, set, dec := &Exec{M: m}, NewCompiledSet(), coding.For(m)
		var roots []*model.Instance
		for _, op := range m.OpList {
			if in := model.NewInstance(op); in.ResolveVariant() == nil && (!op.ReadsOperands || op.IsCodingRoot) {
				roots = append(roots, in)
			}
			if !op.IsCodingRoot {
				continue
			}
			leaves, _, err := dec.Leaves(op)
			if err != nil {
				t.Fatal(err)
			}
			for leaf := 0; leaf < leaves; leaf++ {
				for _, v := range []uint64{0, ^uint64(0)} {
					in, fields, err := dec.Shape(op, leaf)
					if err != nil {
						break // a gap: no word decodes to it
					}
					for _, f := range fields {
						care, fixed := fieldBits(t, dec, f)
						f.Node.Labels[f.Label] = bitvec.New(fixed|v&^care, f.Width)
					}
					roots = append(roots, in)
				}
			}
		}
		var walk func(in *model.Instance) int
		walk = func(in *model.Instance) int {
			n := 0
			if interpreted(in) {
				t.Errorf("%s: %s falls back to the interpreter", name, in.Op.Name)
				n++
			}
			for _, child := range in.Bindings {
				n += walk(child)
			}
			return n
		}
		fallbacks := 0
		for _, in := range roots {
			set.Precompile(x, in)
			fallbacks += walk(in)
		}
		t.Logf("%s: %d instance trees, %d fallbacks", name, len(roots), fallbacks)
	}
}

// fieldBits returns the bits of a LABEL field that its CODING fixes.
func fieldBits(t *testing.T, dec *coding.Decoder, f coding.Field) (care, fixed uint64) {
	lay, err := dec.Layout(f.Node.Op)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range lay.Places {
		if !pl.Ref && pl.Name == f.Label {
			care |= lay.Mask >> uint(pl.Shift) & bitvec.Mask(pl.Width)
			fixed |= lay.Value >> uint(pl.Shift) & bitvec.Mask(pl.Width)
		}
	}
	return care, fixed
}
