package coding

import (
	"sort"

	"golisa/internal/ast"
	"golisa/internal/model"
)

// Unreachable reports one coding-group member no instruction word can
// select: an earlier member of the same group matches every word the
// later one would, and the paper's first-match selection rule
// (decodeGroup) never reaches it. Such encodings are dead space of the
// coding tree and are excluded from coverage denominators.
type Unreachable struct {
	Op         string `json:"op"`          // the shadowed member
	Group      string `json:"group"`       // group it can never be selected from
	ShadowedBy string `json:"shadowed_by"` // earlier member that wins every word
	Pos        string `json:"pos,omitempty"`
}

// memberMask is the statically known bit constraint of one group member's
// coding: word w can match the member only if w&mask == value. pure marks
// codings made of patterns and fields only — for those the constraint is
// exact (matching is equivalent to w&mask == value), for codings with
// references it is merely necessary. FindUnreachable compares these
// constraints; the decoder skips members whose constraint a word fails.
type memberMask struct {
	width int
	mask  uint64
	value uint64
	pure  bool
	ok    bool
}

// FindUnreachable scans every coding group of the model for members
// shadowed by an earlier member: E shadows M when E is pure and E's
// constraint bits are a subset of M's fixed bits with agreeing values —
// then every word satisfying M's fixed bits already matches E, and
// first-match selection returns E. The result is deterministic:
// declaration order of the owning operation, group name, member order.
func FindUnreachable(m *model.Model) []Unreachable {
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
			out = append(out, groupUnreachable(m, op.Groups[name])...)
		}
	}
	return out
}

func groupUnreachable(m *model.Model, g *model.Group) []Unreachable {
	masks := make([]memberMask, len(g.Members))
	for i, mem := range g.Members {
		masks[i] = maskOf(m, mem)
	}
	var out []Unreachable
	for j := 1; j < len(g.Members); j++ {
		mj := masks[j]
		if !mj.ok {
			continue
		}
		for i := 0; i < j; i++ {
			mi := masks[i]
			if !mi.ok || !mi.pure || mi.width != mj.width {
				continue
			}
			if mi.mask&^mj.mask != 0 || mj.value&mi.mask != mi.value {
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

// maskOf folds a member's coding elements MSB-first into one fixed-bit
// constraint. References contribute width but no constraint (their bits
// may take many values), which makes the member impure.
func maskOf(m *model.Model, op *model.Operation) memberMask {
	sec := OpCoding(op)
	if sec == nil || op.CodingWidth <= 0 || op.CodingWidth > 64 {
		return memberMask{}
	}
	r := memberMask{pure: true, ok: true}
	emit := func(value, mask uint64, w int) {
		r.value = r.value<<uint(w) | value
		r.mask = r.mask<<uint(w) | mask
		r.width += w
	}
	for _, e := range sec.Elems {
		switch el := e.(type) {
		case *ast.CodingPattern:
			emit(patternValue(el.Bits), patternCareMask(el.Bits), len(el.Bits))
		case *ast.CodingField:
			emit(patternValue(el.Bits), patternCareMask(el.Bits), len(el.Bits))
		case *ast.CodingRef:
			w := 0
			if g, ok := op.Groups[el.Name]; ok {
				w = groupWidth(g)
			} else if ref := m.Ops[el.Name]; ref != nil {
				w = ref.CodingWidth
			}
			if w == 0 {
				return memberMask{}
			}
			emit(0, 0, w)
			r.pure = false
		}
	}
	if r.width != op.CodingWidth {
		return memberMask{}
	}
	return r
}

// UnreachableSet names the operations that are globally dead in the
// coding tree: every group appearance is shadowed and no coding refers
// to the operation directly by name. Operations outside the coding tree
// are not reported — absence from every group is not shadowing.
func UnreachableSet(m *model.Model) map[string]bool {
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
	for _, u := range FindUnreachable(m) {
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
