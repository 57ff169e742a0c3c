package coding

import (
	"golisa/internal/bitvec"
	"golisa/internal/model"
)

// Node is a view of one node of a word's coding leaf: an operation of
// the leaf, with the word's bits under its CODING. It reads the plans
// and allocates nothing, so a tool can render a word from its leaf
// without building the instance tree DecodeRoot returns.
type Node struct {
	d    *Decoder
	p    *plan
	x    uint64 // the word's bits, the node's coding at bit 0
	leaf int    // the leaf below the node, a leaf id of p
}

// Node decodes word against root's coding tree, as Leaf does, and
// returns the root node of its leaf. On a miss the error is DecodeRoot's.
func (d *Decoder) Node(root *model.Operation, word bitvec.Value) (Node, error) {
	p, err := d.rootPlan(root)
	if err != nil {
		return Node{}, err
	}
	x := word.Uint() & bitvec.Mask(p.width)
	leaf, _, ok := d.match(p, x, nil, 0)
	if !ok {
		return Node{}, d.explain(p, x)
	}
	return Node{d, p, x, leaf}, nil
}

// Op returns the node's operation.
func (n Node) Op() *model.Operation { return n.p.op }

// Variant returns the variant the members bound below the node select.
func (n Node) Variant() *model.Variant {
	sel := 0
	for i := range n.p.elems {
		if e := &n.p.elems[i]; e.group != nil {
			j, _, _ := n.d.member(e, n.leaf)
			sel = sel*len(e.group.Members) + j
		}
	}
	return n.p.variant(sel)
}

// Label returns the bits of the node's LABEL field label, or false when
// its CODING has no such field.
func (n Node) Label(label string) (bitvec.Value, bool) {
	i := n.p.field(label)
	if i < 0 {
		return bitvec.Value{}, false
	}
	e := &n.p.elems[i]
	return bitvec.New(n.x>>uint(e.shift), int(e.width)), true
}

// Ref returns the node of the member bound at the node's reference name,
// the last one of a repeated name, or false when its CODING has none.
func (n Node) Ref(name string) (Node, bool) {
	for i := len(n.p.elems) - 1; i >= 0; i-- {
		if e := &n.p.elems[i]; e.group != nil && e.name == name {
			_, mp, below := n.d.member(e, n.leaf)
			return Node{n.d, mp, n.x >> uint(e.shift), below}, true
		}
	}
	return Node{}, false
}
