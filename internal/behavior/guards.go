package behavior

import (
	"golisa/internal/ast"
	"golisa/internal/model"
)

// guardOf returns the machine resources condition e reads, in source
// order and deduplicated, cached per condition. It is a static
// approximation used for hazard attribution: an identifier counts when
// it names a model resource (locals or decoded fields shadowing a
// resource name are rare in practice and merely shift the attribution,
// never the timing). Alias resources resolve to themselves; indexed
// accesses report the indexed resource.
func (x *Exec) guardOf(e ast.Expr) []*model.Resource {
	if res, ok := x.guardRes[e]; ok {
		return res
	}
	var out []*model.Resource
	add := func(name string) {
		r := x.M.Resource(name)
		if r == nil {
			return
		}
		for _, seen := range out {
			if seen == r {
				return
			}
		}
		out = append(out, r)
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.Ident:
			add(x.Name)
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.I)
		case *ast.BitsExpr:
			walk(x.X)
			walk(x.Hi)
			walk(x.Lo)
		case *ast.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *ast.CondExpr:
			walk(x.C)
			walk(x.T)
			walk(x.F)
		}
	}
	walk(e)
	if x.guardRes == nil {
		x.guardRes = map[ast.Expr][]*model.Resource{}
	}
	x.guardRes[e] = out
	return out
}
