// Package cover measures model coverage: which parts of a LISA
// description a simulation run actually exercised. Where the profiler
// and the hazard-attribution engine account for every *cycle*, this
// package accounts for every *structural element* of the model across
// four finite domains extracted once from the compiled model:
//
//   - leaves: coding-tree operations a decode ever selected,
//   - ops: operations that ever executed,
//   - edges: ACTIVATION edges (activator→activatee) that ever fired,
//   - causes: hazard causes (data/control/structural/explicit) observed.
//
// Each domain is a dense bitset indexed by a deterministic enumeration
// of the model (Map), so the hot path is one bit-set per event and a
// detached simulation pays only the usual nil checks. Snapshots are
// mergeable (fleet batches union per-job coverage) and diffable, and
// reports list the *uncovered* items by model source location.
// Statically unreachable coding-tree leaves (coding.FindUnreachable)
// are excluded from every denominator.
package cover

import (
	"fmt"
	"hash/fnv"
	"sort"

	"golisa/internal/ast"
	"golisa/internal/coding"
	"golisa/internal/model"
	"golisa/internal/trace"
)

// Causes lists the hazard-cause item names in trace's stable report
// order — the fixed enumeration of the causes domain.
func Causes() []string {
	out := make([]string, 0, len(trace.Causes))
	for _, c := range trace.Causes {
		out = append(out, c.String())
	}
	return out
}

// Domain indices of the four coverage domains.
const (
	DomainLeaves = iota // coding-tree operations selected by a decode
	DomainOps           // operations executed
	DomainEdges         // ACTIVATION edges fired (source->target)
	DomainCauses        // hazard causes observed

	NumDomains
)

// DomainNames gives the stable wire name of each domain, in index order.
var DomainNames = [NumDomains]string{"leaves", "ops", "edges", "causes"}

// DomainIndex maps a wire name back to its index, or -1.
func DomainIndex(name string) int {
	for i, n := range DomainNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Item is one coverable element of a domain: its stable name (operation
// name, "source->target" edge, cause name) and, when known, the model
// source position it points back to.
type Item struct {
	Name string `json:"name"`
	Pos  string `json:"pos,omitempty"`
}

// Map is the deterministic enumeration of one model's coverage domains,
// built once per model and shared by every collector over it. The
// fingerprint commits to the model name and every item of every domain,
// so snapshots taken against different models (or different revisions
// of one model) refuse to merge or diff.
type Map struct {
	Model       string
	Fingerprint uint64
	Items       [NumDomains][]Item
	// Excluded lists the statically unreachable coding-tree leaves that
	// were removed from the denominators, with the member that shadows
	// each (coding.FindUnreachable).
	Excluded []coding.Unreachable

	// The event path's bit tables: leafBit and opBit by
	// model.Operation.Index (-1: not an item), and for each edge bit its
	// (source, target) pair as source*len(opBit)+target.
	leafBit, opBit, edgeAt []int32
}

// NewMap enumerates the coverage domains of a model. The enumeration is
// deterministic: declaration order of operations, then coding-element,
// group-member and activation-item order within each.
func NewMap(m *model.Model) *Map {
	cm := &Map{Model: m.Name}
	found := coding.FindUnreachable(m)
	dead := coding.UnreachableSet(m, found)
	for _, u := range found {
		if dead[u.Op] {
			cm.Excluded = append(cm.Excluded, u)
		}
	}

	cm.Items[DomainLeaves] = enumLeaves(m, dead)
	cm.Items[DomainOps] = enumOps(m, dead)
	var edges [][2]*model.Operation
	cm.Items[DomainEdges], edges = enumEdges(m, dead)
	for _, c := range Causes() {
		cm.Items[DomainCauses] = append(cm.Items[DomainCauses], Item{Name: c})
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "model=%s\n", m.Name)
	for d := 0; d < NumDomains; d++ {
		fmt.Fprintf(h, "domain=%s\n", DomainNames[d])
		for _, it := range cm.Items[d] {
			fmt.Fprintf(h, "%s\n", it.Name)
		}
	}
	for _, u := range cm.Excluded {
		fmt.Fprintf(h, "excluded=%s\n", u.Op)
	}
	cm.Fingerprint = h.Sum64()

	n := len(m.OpList)
	cm.leafBit, cm.opBit, cm.edgeAt = make([]int32, n), make([]int32, n), make([]int32, len(edges))
	for _, op := range m.OpList {
		cm.leafBit[op.Index] = int32(cm.Index(DomainLeaves, op.Name))
		cm.opBit[op.Index] = int32(cm.Index(DomainOps, op.Name))
	}
	for i, e := range edges {
		cm.edgeAt[i] = int32(e[0].Index*n + e[1].Index)
	}
	return cm
}

// Index returns the bit index of name in domain d, or -1 when the model
// has no such item.
func (cm *Map) Index(d int, name string) int {
	for i, it := range cm.Items[d] {
		if it.Name == name {
			return i
		}
	}
	return -1
}

// opPos renders an operation's source position.
func opPos(op *model.Operation) string {
	if op.Src != nil {
		return op.Src.Pos.String()
	}
	return ""
}

// enumLeaves walks the coding tree from every coding root in declaration
// order, collecting each operation a decode could select: the roots
// themselves, direct coding references, and group members — minus the
// statically dead set.
func enumLeaves(m *model.Model, dead map[string]bool) []Item {
	var items []Item
	seen := map[string]bool{}
	var visit func(op *model.Operation)
	visit = func(op *model.Operation) {
		if op == nil || seen[op.Name] || dead[op.Name] {
			return
		}
		seen[op.Name] = true
		items = append(items, Item{Name: op.Name, Pos: opPos(op)})
		for _, v := range op.Variants {
			if v.Coding == nil {
				continue
			}
			for _, e := range v.Coding.Elems {
				ref, ok := e.(*ast.CodingRef)
				if !ok {
					continue
				}
				if g, isGroup := op.Groups[ref.Name]; isGroup {
					for _, mem := range g.Members {
						visit(mem)
					}
					continue
				}
				visit(m.Ops[ref.Name])
			}
		}
	}
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			visit(op)
		}
	}
	return items
}

// enumOps collects the executable operations: non-alias operations with
// a BEHAVIOR or ACTIVATION section in some variant, plus every
// activation target (group-expanded). Statically dead operations are
// excluded unless some ACTIVATION names them directly.
func enumOps(m *model.Model, dead map[string]bool) []Item {
	direct := map[string]bool{}
	targets := map[string]bool{}
	for _, op := range m.OpList {
		for _, v := range op.Variants {
			if v.Activation == nil {
				continue
			}
			walkActTargets(m, op, v.Activation.Items, func(t *model.Operation, viaGroup bool) {
				targets[t.Name] = true
				if !viaGroup {
					direct[t.Name] = true
				}
			})
		}
	}
	var items []Item
	for _, op := range m.OpList {
		if op.Alias {
			continue
		}
		executable := targets[op.Name]
		for _, v := range op.Variants {
			if v.Behavior != nil || v.Activation != nil {
				executable = true
				break
			}
		}
		if !executable || (dead[op.Name] && !direct[op.Name]) {
			continue
		}
		items = append(items, Item{Name: op.Name, Pos: opPos(op)})
	}
	return items
}

// enumEdges collects the static ACTIVATION edges "source->target" with
// groups expanded to their members, in declaration order, dropping
// edges into (or out of) the statically dead set. It returns each
// item's (source, target) operations alongside.
func enumEdges(m *model.Model, dead map[string]bool) ([]Item, [][2]*model.Operation) {
	var items []Item
	var ops [][2]*model.Operation
	seen := map[string]bool{}
	for _, op := range m.OpList {
		if op.Alias || dead[op.Name] {
			continue
		}
		for _, v := range op.Variants {
			if v.Activation == nil {
				continue
			}
			walkActTargets(m, op, v.Activation.Items, func(t *model.Operation, viaGroup bool) {
				if dead[t.Name] && !viaGroup {
					// Directly activated dead ops still execute; keep
					// the edge. Group-expanded dead members never
					// decode, so their edges can never fire.
				} else if dead[t.Name] {
					return
				}
				name := op.Name + "->" + t.Name
				if seen[name] {
					return
				}
				seen[name] = true
				items = append(items, Item{Name: name, Pos: opPos(t)})
				ops = append(ops, [2]*model.Operation{op, t})
			})
		}
	}
	return items, ops
}

// walkActTargets calls fn for every operation an ACTIVATION section of
// op could schedule, expanding group names to their members (viaGroup
// true) and resolving direct names through the model. ActPipeOp items
// are pipeline control, not activation edges, and are skipped.
func walkActTargets(m *model.Model, op *model.Operation, items []ast.ActItem, fn func(t *model.Operation, viaGroup bool)) {
	for _, item := range items {
		switch it := item.(type) {
		case *ast.ActRef:
			if g, ok := op.Groups[it.Name]; ok {
				for _, mem := range g.Members {
					fn(mem, true)
				}
				continue
			}
			if t, ok := m.Ops[it.Name]; ok {
				fn(t, false)
			}
		case *ast.ActIf:
			walkActTargets(m, op, it.Then, fn)
			walkActTargets(m, op, it.Else, fn)
		case *ast.ActSwitch:
			for i := range it.Cases {
				walkActTargets(m, op, it.Cases[i].Items, fn)
			}
		}
	}
}

// SortedExcluded returns the excluded leaves sorted by operation name
// (stable for reports; Map.Excluded itself keeps discovery order).
func (cm *Map) SortedExcluded() []coding.Unreachable {
	out := append([]coding.Unreachable(nil), cm.Excluded...)
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
