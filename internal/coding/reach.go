package coding

import (
	"sort"

	"golisa/internal/ast"
	"golisa/internal/model"
)

// Unreachable reports one coding-group member no instruction word can
// select: an earlier member of the same group matches every word the
// later one would, and the paper's first-match selection rule, which the
// decoder's plans apply at every reference, never reaches it. Such
// encodings are dead space of the coding tree and are excluded from
// coverage denominators.
type Unreachable struct {
	Op         string `json:"op"`          // the shadowed member
	Group      string `json:"group"`       // group it can never be selected from
	ShadowedBy string `json:"shadowed_by"` // earlier member that wins every word
	Pos        string `json:"pos,omitempty"`
}

// FindUnreachable scans every coding group of the model for members
// shadowed by an earlier member: E shadows M when E matches every word
// that has its fixed bits (total) and E's fixed bits are a subset of M's
// with agreeing values (the decoder's plans hold both) — then every word
// satisfying M's fixed bits already matches E, and first-match selection
// returns E. The result is deterministic: declaration order of the owning
// operation, group name, member order.
func FindUnreachable(m *model.Model) []Unreachable {
	d := For(m)
	var out []Unreachable
	for _, op := range m.OpList {
		names := make([]string, 0, len(op.Groups))
		for name, g := range op.Groups {
			if g.Owner == op {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, d.groupUnreachable(op.Groups[name])...)
		}
	}
	return out
}

func (d *Decoder) groupUnreachable(g *model.Group) []Unreachable {
	// fixed returns a member's plan when its fixed bits are known.
	fixed := func(op *model.Operation) *plan {
		if p := d.plans[op.Index]; p != nil && p.err == nil && p.width > 0 {
			return p
		}
		return nil
	}
	var out []Unreachable
	for j := 1; j < len(g.Members); j++ {
		mj := fixed(g.Members[j])
		if mj == nil {
			continue
		}
		for i := 0; i < j; i++ {
			mi := fixed(g.Members[i])
			if mi == nil || mi.width != mj.width || mi.mask&^mj.mask != 0 || mj.value&mi.mask != mi.value || !d.total(mi) {
				continue
			}
			u := Unreachable{
				Op:         g.Members[j].Name,
				Group:      g.Name,
				ShadowedBy: g.Members[i].Name,
			}
			if src := g.Members[j].Src; src != nil {
				u.Pos = src.Pos.String()
			}
			out = append(out, u)
			break
		}
	}
	return out
}

// maxTotalBits bounds the references total checks: it tries every value
// of a reference's bits, so a wider one counts as not total.
const maxTotalBits = 16

// total reports whether p matches every word that has its fixed bits:
// every member choice selects a variant, and each reference accepts every
// value of its bits, tried through the members' plans by first match.
func (d *Decoder) total(p *plan) bool {
	if p.gaps || len(p.variants) == 0 {
		return false
	}
	for i := range p.elems {
		e := &p.elems[i]
		if e.group == nil {
			continue
		}
		if e.width > maxTotalBits {
			return false
		}
		for x := uint64(0); x < 1<<uint(e.width); x++ {
			if d.first(e, x) < 0 {
				return false
			}
		}
	}
	return true
}

// UnreachableSet names the operations that are globally dead in the
// coding tree: every group appearance is shadowed and no coding refers
// to the operation directly by name. found is FindUnreachable(m).
// Operations outside the coding tree are not reported — absence from
// every group is not shadowing.
func UnreachableSet(m *model.Model, found []Unreachable) map[string]bool {
	shadowed := map[string]int{} // op -> shadowed appearances
	appears := map[string]int{}  // op -> group appearances
	for _, op := range m.OpList {
		for _, g := range op.Groups {
			if g.Owner != op {
				continue
			}
			for _, mem := range g.Members {
				appears[mem.Name]++
			}
		}
	}
	for _, u := range found {
		shadowed[u.Op]++
	}
	direct := map[string]bool{} // named directly by some CodingRef
	for _, op := range m.OpList {
		for _, v := range op.Variants {
			if v.Coding == nil {
				continue
			}
			for _, e := range v.Coding.Elems {
				if ref, ok := e.(*ast.CodingRef); ok {
					if _, isGroup := op.Groups[ref.Name]; !isGroup {
						direct[ref.Name] = true
					}
				}
			}
		}
	}
	out := map[string]bool{}
	for name, n := range appears {
		if shadowed[name] >= n && !direct[name] {
			out[name] = true
		}
	}
	return out
}
