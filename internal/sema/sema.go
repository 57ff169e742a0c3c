// Package sema performs semantic analysis of a parsed LISA description and
// builds the intermediate database (internal/model): name resolution,
// pipeline-stage assignment, group resolution, compile-time SWITCH/IF
// flattening into guarded variants, coding-width checking, coding-root
// detection, and the binding of every name in BEHAVIOR, EXPRESSION and
// ACTIVATION code (resolve.go).
package sema

import (
	"fmt"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// Analyzer carries diagnostics while building the database.
type Analyzer struct {
	m    *model.Model
	errs []error

	uses     []use                     // name uses checked once every operation is resolved
	reported map[string]bool           // errorAt's messages, reported once each
	lvalues  map[*model.Operation]bool // assignable's memo
}

// Build constructs the intermediate database for a parsed description.
// The returned error slice is non-empty when the model is unusable.
func Build(name string, d *ast.Description) (*model.Model, []error) {
	a := &Analyzer{m: model.NewModel(name)}
	a.buildResources(d)
	a.buildPipelines(d)
	a.buildOperations(d)
	a.m.AssignSlots()
	return a.m, a.errs
}

func (a *Analyzer) errorf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf(format, args...))
}

// --- resources ---------------------------------------------------------------

func (a *Analyzer) buildResources(d *ast.Description) {
	// First pass: create all non-alias resources so aliases can resolve
	// forward references.
	var aliases []*ast.ResourceDecl
	for _, rd := range d.Resources {
		if rd.IsAlias {
			aliases = append(aliases, rd)
			continue
		}
		r := &model.Resource{
			Name:   rd.Name,
			Class:  rd.Class,
			Type:   rd.Type,
			Width:  rd.Type.Width,
			Signed: rd.Type.Signed(),
			Banks:  rd.Banks,
			Wait:   rd.Wait,
			Latch:  rd.Latch,
		}
		switch {
		case rd.HasRange:
			r.Base = rd.RangeLo
			r.Size = rd.RangeHi - rd.RangeLo + 1
		default:
			r.Size = rd.Size
		}
		if err := a.m.AddResource(r); err != nil {
			a.errorf("%s: %v", rd.Pos, err)
		}
	}
	for _, rd := range aliases {
		target := a.m.Resource(rd.AliasOf)
		if target == nil {
			a.errorf("%s: alias %s refers to unknown resource %s", rd.Pos, rd.Name, rd.AliasOf)
			continue
		}
		if target.IsMemory() {
			a.errorf("%s: alias %s onto memory resource %s is not supported", rd.Pos, rd.Name, rd.AliasOf)
			continue
		}
		if rd.AliasHi >= target.Width {
			a.errorf("%s: alias %s range [%d..%d] exceeds %s width %d",
				rd.Pos, rd.Name, rd.AliasHi, rd.AliasLo, target.Name, target.Width)
			continue
		}
		want := rd.AliasHi - rd.AliasLo + 1
		if rd.Type.Width != want {
			a.errorf("%s: alias %s declared bit[%d] but range [%d..%d] has %d bits",
				rd.Pos, rd.Name, rd.Type.Width, rd.AliasHi, rd.AliasLo, want)
		}
		r := &model.Resource{
			Name:    rd.Name,
			Class:   rd.Class,
			Type:    rd.Type,
			Width:   want,
			Signed:  rd.Type.Signed(),
			IsAlias: true,
			AliasOf: target,
			AliasHi: rd.AliasHi,
			AliasLo: rd.AliasLo,
		}
		if err := a.m.AddResource(r); err != nil {
			a.errorf("%s: %v", rd.Pos, err)
		}
	}
}

func (a *Analyzer) buildPipelines(d *ast.Description) {
	for _, pd := range d.Pipelines {
		p := &model.Pipeline{Name: pd.Name, Stages: pd.Stages}
		if err := a.m.AddPipeline(p); err != nil {
			a.errorf("%s: %v", pd.Pos, err)
		}
	}
}

// --- operations --------------------------------------------------------------

func (a *Analyzer) buildOperations(d *ast.Description) {
	// Create shells first so groups and references can resolve forward.
	for _, od := range d.Operations {
		op := &model.Operation{
			Name:   od.Name,
			Src:    od,
			Alias:  od.Alias,
			Groups: map[string]*model.Group{},
			Labels: map[string]bool{},
			Refs:   map[string]*model.Operation{},
		}
		if err := a.m.AddOperation(op); err != nil {
			a.errorf("%s: %v", od.Pos, err)
		}
	}
	for _, od := range d.Operations {
		op := a.m.Ops[od.Name]
		if op == nil || op.Src != od {
			continue // duplicate; first definition wins
		}
		a.resolveOperation(op)
	}
	a.computeCodingWidths()
	a.resolveCode()
}

func (a *Analyzer) resolveOperation(op *model.Operation) {
	od := op.Src
	if od.Pipe != "" {
		p := a.m.Pipeline(od.Pipe)
		if p == nil {
			a.errorf("%s: operation %s assigned to unknown pipeline %s", od.Pos, op.Name, od.Pipe)
		} else {
			idx := p.StageIndex(od.Stage)
			if idx < 0 {
				a.errorf("%s: operation %s assigned to unknown stage %s.%s", od.Pos, op.Name, od.Pipe, od.Stage)
			} else {
				op.Pipe = p
				op.StageIdx = idx
			}
		}
	}

	// Declarations (DECLARE sections may appear inside SWITCH cases too, but
	// by far the common form is top level; we resolve every DECLARE found
	// anywhere in the body).
	a.collectDeclares(op, od.Sections)

	// Flatten compile-time structure into variants.
	base := &model.Variant{Custom: map[string]string{}}
	op.Variants = a.applySections(op, []*model.Variant{base}, od.Sections)

	// Coding root detection and per-variant checks.
	for _, v := range op.Variants {
		if v.Coding != nil && v.Coding.CompareTo != "" {
			op.IsCodingRoot = true
			r := a.m.Resource(v.Coding.CompareTo)
			if r == nil {
				a.errorf("%s: coding root of %s compares unknown resource %s",
					v.Coding.Pos, op.Name, v.Coding.CompareTo)
			} else {
				op.RootResource = r
			}
		}
		a.checkCodingElems(op, v)
		a.checkSyntaxElems(op, v)
	}
}

func (a *Analyzer) collectDeclares(op *model.Operation, secs []ast.Section) {
	for _, s := range secs {
		switch sec := s.(type) {
		case *ast.DeclareSec:
			for _, g := range sec.Groups {
				grp := &model.Group{Owner: op}
				for _, mname := range g.Members {
					mem := a.m.Ops[mname]
					if mem == nil {
						a.errorf("%s: group in %s references unknown operation %s", g.Pos, op.Name, mname)
						continue
					}
					grp.Members = append(grp.Members, mem)
				}
				for _, gname := range g.Names {
					if _, dup := op.Groups[gname]; dup {
						a.errorf("%s: duplicate group %s in %s", g.Pos, gname, op.Name)
						continue
					}
					named := &model.Group{Name: gname, Owner: op, Members: grp.Members}
					op.Groups[gname] = named
				}
			}
			for _, l := range sec.Labels {
				op.Labels[l] = true
			}
			for _, rname := range sec.Refs {
				ref := a.m.Ops[rname]
				if ref == nil {
					a.errorf("%s: REFERENCE in %s names unknown operation %s", sec.Pos, op.Name, rname)
					continue
				}
				op.Refs[rname] = ref
			}
		case *ast.SwitchSec:
			for _, c := range sec.Cases {
				a.collectDeclares(op, c.Sections)
			}
		case *ast.IfSec:
			a.collectDeclares(op, sec.Then)
			a.collectDeclares(op, sec.Else)
		}
	}
}

// applySections folds a section list into the current variant set,
// multiplying variants at SWITCH/IF nodes.
func (a *Analyzer) applySections(op *model.Operation, vs []*model.Variant, secs []ast.Section) []*model.Variant {
	for _, s := range secs {
		switch sec := s.(type) {
		case *ast.DeclareSec:
			// handled by collectDeclares
		case *ast.CodingSec:
			for _, v := range vs {
				if v.Coding != nil {
					a.errorf("%s: operation %s: duplicate CODING in one variant", sec.Pos, op.Name)
				}
				v.Coding = sec
			}
		case *ast.SyntaxSec:
			for _, v := range vs {
				if v.Syntax != nil {
					a.errorf("%s: operation %s: duplicate SYNTAX in one variant", sec.Pos, op.Name)
				}
				v.Syntax = sec
			}
		case *ast.BehaviorSec:
			for _, v := range vs {
				v.Behavior = sec
			}
		case *ast.ExpressionSec:
			for _, v := range vs {
				v.Expression = sec
			}
		case *ast.ActivationSec:
			for _, v := range vs {
				v.Activation = sec
			}
		case *ast.SemanticsSec:
			for _, v := range vs {
				v.Semantics = sec.Text
			}
		case *ast.CustomSec:
			for _, v := range vs {
				v.Custom[sec.Name] = sec.Text
			}
		case *ast.SwitchSec:
			vs = a.applySwitch(op, vs, sec)
		case *ast.IfSec:
			vs = a.applyIf(op, vs, sec)
		default:
			a.errorf("operation %s: unhandled section %T", op.Name, s)
		}
	}
	return vs
}

func (a *Analyzer) applySwitch(op *model.Operation, vs []*model.Variant, sec *ast.SwitchSec) []*model.Variant {
	grp := op.Groups[sec.Group]
	if grp == nil {
		a.errorf("%s: SWITCH over unknown group %s in %s", sec.Pos, sec.Group, op.Name)
		return vs
	}
	var out []*model.Variant
	var covered []*model.Operation
	for _, c := range sec.Cases {
		if c.Default {
			// Default arm: guards exclude every covered member.
			for _, v := range vs {
				nv := cloneVariant(v)
				for _, mem := range covered {
					nv.Guards = append(nv.Guards, model.Guard{Group: sec.Group, Member: mem, Negate: true})
				}
				branch := a.applySections(op, []*model.Variant{nv}, c.Sections)
				out = append(out, branch...)
			}
			continue
		}
		for _, mname := range c.Members {
			mem := a.m.Ops[mname]
			if mem == nil || grp.MemberIndex(mem) < 0 {
				a.errorf("%s: CASE %s is not a member of group %s", sec.Pos, mname, sec.Group)
				continue
			}
			covered = append(covered, mem)
			for _, v := range vs {
				nv := cloneVariant(v)
				nv.Guards = append(nv.Guards, model.Guard{Group: sec.Group, Member: mem})
				branch := a.applySections(op, []*model.Variant{nv}, c.Sections)
				out = append(out, branch...)
			}
		}
	}
	if len(out) == 0 {
		return vs
	}
	return out
}

func (a *Analyzer) applyIf(op *model.Operation, vs []*model.Variant, sec *ast.IfSec) []*model.Variant {
	grp := op.Groups[sec.Group]
	if grp == nil {
		a.errorf("%s: IF over unknown group %s in %s", sec.Pos, sec.Group, op.Name)
		return vs
	}
	mem := a.m.Ops[sec.Member]
	if mem == nil || grp.MemberIndex(mem) < 0 {
		a.errorf("%s: IF member %s is not in group %s", sec.Pos, sec.Member, sec.Group)
		return vs
	}
	var out []*model.Variant
	for _, v := range vs {
		tv := cloneVariant(v)
		tv.Guards = append(tv.Guards, model.Guard{Group: sec.Group, Member: mem, Negate: sec.Negate})
		out = append(out, a.applySections(op, []*model.Variant{tv}, sec.Then)...)
		ev := cloneVariant(v)
		ev.Guards = append(ev.Guards, model.Guard{Group: sec.Group, Member: mem, Negate: !sec.Negate})
		out = append(out, a.applySections(op, []*model.Variant{ev}, sec.Else)...)
	}
	return out
}

func cloneVariant(v *model.Variant) *model.Variant {
	nv := &model.Variant{
		Guards:     append([]model.Guard(nil), v.Guards...),
		Coding:     v.Coding,
		Syntax:     v.Syntax,
		Behavior:   v.Behavior,
		Expression: v.Expression,
		Activation: v.Activation,
		Semantics:  v.Semantics,
		Custom:     map[string]string{},
	}
	for k, val := range v.Custom {
		nv.Custom[k] = val
	}
	return nv
}

// --- checks -------------------------------------------------------------------

func (a *Analyzer) checkCodingElems(op *model.Operation, v *model.Variant) {
	if v.Coding == nil {
		return
	}
	for _, e := range v.Coding.Elems {
		switch el := e.(type) {
		case *ast.CodingField:
			if !op.Labels[el.Label] {
				a.errorf("%s: coding field %s in %s uses undeclared label", el.Pos, el.Label, op.Name)
			}
		case *ast.CodingRef:
			if _, isGroup := op.Groups[el.Name]; isGroup {
				continue
			}
			if _, isOp := a.m.Ops[el.Name]; isOp {
				continue
			}
			a.errorf("%s: coding of %s references unknown operation or group %s", el.Pos, op.Name, el.Name)
		}
	}
}

func (a *Analyzer) checkSyntaxElems(op *model.Operation, v *model.Variant) {
	if v.Syntax == nil {
		return
	}
	for _, e := range v.Syntax.Elems {
		ref, ok := e.(*ast.SyntaxRef)
		if !ok {
			continue
		}
		if op.Labels[ref.Name] {
			continue
		}
		if _, isGroup := op.Groups[ref.Name]; isGroup {
			continue
		}
		if _, isOp := a.m.Ops[ref.Name]; isOp {
			continue
		}
		a.errorf("%s: syntax of %s references unknown symbol %s", ref.Pos, op.Name, ref.Name)
	}
}

// computeCodingWidths determines the total coding width of every operation
// and verifies that all members of a group used in coding agree on width.
func (a *Analyzer) computeCodingWidths() {
	memo := map[*model.Operation]int{}
	visiting := map[*model.Operation]bool{}

	var widthOf func(op *model.Operation) int
	widthOfGroup := func(op *model.Operation, name string) (int, bool) {
		g, ok := op.Groups[name]
		if !ok {
			return 0, false
		}
		w := -1
		for _, mem := range g.Members {
			mw := widthOf(mem)
			if w == -1 {
				w = mw
			} else if mw != w && mw != 0 && w != 0 {
				a.errorf("group %s in %s: member %s coding width %d differs from %d",
					name, op.Name, mem.Name, mw, w)
			}
			if w == 0 && mw != 0 {
				w = mw
			}
		}
		if w < 0 {
			w = 0
		}
		return w, true
	}

	widthOf = func(op *model.Operation) int {
		if w, ok := memo[op]; ok {
			return w
		}
		if visiting[op] {
			a.errorf("operation %s: recursive coding definition", op.Name)
			memo[op] = 0
			return 0
		}
		visiting[op] = true
		defer delete(visiting, op)

		width := -1
		for _, v := range op.Variants {
			if v.Coding == nil || v.Coding.CompareTo != "" {
				continue
			}
			w := 0
			for _, e := range v.Coding.Elems {
				switch el := e.(type) {
				case *ast.CodingPattern:
					w += len(el.Bits)
				case *ast.CodingField:
					w += len(el.Bits)
				case *ast.CodingRef:
					if gw, ok := widthOfGroup(op, el.Name); ok {
						w += gw
					} else if ref := a.m.Ops[el.Name]; ref != nil {
						w += widthOf(ref)
					}
				}
			}
			if width == -1 {
				width = w
			} else if w != width {
				a.errorf("operation %s: variants disagree on coding width (%d vs %d)", op.Name, width, w)
			}
		}
		if width < 0 {
			width = 0
		}
		// Instruction words are bitvec values, which carry at most
		// bitvec.MaxWidth bits; a wider coding would silently truncate in
		// the decoder and collide in the simulator's word-keyed decode
		// cache, so reject it here with a real diagnostic.
		if width > bitvec.MaxWidth {
			a.errorf("operation %s: coding width %d exceeds the %d-bit instruction word limit",
				op.Name, width, bitvec.MaxWidth)
		}
		memo[op] = width
		op.CodingWidth = width
		return width
	}

	for _, op := range a.m.OpList {
		widthOf(op)
	}

	// Coding roots: check the compared group width fits the resource.
	for _, op := range a.m.OpList {
		if !op.IsCodingRoot || op.RootResource == nil {
			continue
		}
		for _, v := range op.Variants {
			if v.Coding == nil || v.Coding.CompareTo == "" {
				continue
			}
			w := 0
			for _, e := range v.Coding.Elems {
				switch el := e.(type) {
				case *ast.CodingPattern:
					w += len(el.Bits)
				case *ast.CodingField:
					w += len(el.Bits)
				case *ast.CodingRef:
					if gw, ok := widthOfGroup(op, el.Name); ok {
						w += gw
					} else if ref := a.m.Ops[el.Name]; ref != nil {
						w += ref.CodingWidth
					}
				}
			}
			if w > bitvec.MaxWidth {
				a.errorf("coding root %s: pattern width %d exceeds the %d-bit instruction word limit",
					op.Name, w, bitvec.MaxWidth)
			} else if w > op.RootResource.Width {
				a.errorf("coding root %s: pattern width %d exceeds resource %s width %d",
					op.Name, w, op.RootResource.Name, op.RootResource.Width)
			}
		}
	}
}

// CountSourceLines counts non-blank lines, the metric the paper uses for
// its 5362-line figure.
func CountSourceLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
