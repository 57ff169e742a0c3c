package gosim

import (
	"fmt"
	"slices"
	"sync"

	"golisa/internal/asm"
	"golisa/internal/ast"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/core"
	"golisa/internal/model"
	"golisa/internal/perf"
)

// modelIR is the per-model half of the gosim IR: the reset and main
// behaviors, main's activation items, and the work of every coding leaf
// by pipeline stage. A coding leaf is one path through the coding tree
// from the dispatch root down, with every group member chosen; its LABEL
// fields stay open and are read at run time. It is compiled once per
// core.Machine (see modelOf) and shared by every Program of the model,
// the closure backend and the runner source.
type modelIR struct {
	hash string // perf.HashString over the LISA source

	depth   int // pipeline depth; 1 for unpipelined models
	pipe    *model.Pipeline
	progMem *model.Resource
	halt    *model.Resource // nil: never halts
	root    *model.Operation
	rootRes *model.Resource
	dispW   int // dispatch key width: min(root resource width, word width)

	resetB []*stmt
	mainB  []*stmt
	items  []mainItem
	shift  bool // main activation carries the pipeline shift

	leaves []*leaf // by coding leaf id (coding.Decoder.Leaves)
	nField int     // most LABEL fields of any leaf
	dec    *coding.Decoder

	nLoc int // shared local pool size (max over all handlers)

	// Slot-indexed resource tables mirroring model.State's layout.
	scalars []*model.Resource
	arrays  []*model.Resource

	latches  []*model.Resource
	latchIdx map[*model.Resource]int

	rt     *runtimeProg // lazily compiled closure backend (interp.go)
	rtOnce sync.Once

	srcOnce sync.Once // the runner source, emitted once (emit.go)
	src     []byte
	key     string
	srcErr  error
}

// Program is one program compiled against its model's IR: the program
// image plus the decode table that maps each distinct dispatch key to its
// leaf and LABEL field values. It is immutable after Compile and shared
// freely across Machines, workers and runner processes.
type Program struct {
	*modelIR

	Model *model.Model

	Origin uint64
	Words  []uint64 // program image, masked to the word width

	words []decWord // distinct dispatch keys, in program order; none without a coding root
	tab   table     // the words' dispatch keys

	reqOnce sync.Once // the runner's program request (proto.go)
	req     []byte
}

// mainItem is one ActRef of the main operation's ACTIVATION whose target
// has a behavior: an optional guard condition plus the behavior, which
// runs in the cycle that activates it.
type mainItem struct {
	cond   *expr
	body   []*stmt
	opName string
}

// leaf is the handler of one coding leaf over the leaf's LABEL fields:
// by pipeline stage s, the behaviors of the operations its decode
// ACTIVATION names in that stage, in activation order. A word's stage-s
// work runs s cycles after its dispatch; stage 0 also holds the
// unassigned operations, which run in the dispatch cycle. A leaf the IR
// cannot compile keeps the reason; a program with a word that decodes to
// it fails Compile.
type leaf struct {
	id     int
	name   string
	nField int
	work   [][]*stmt // by stage, depth long
	err    error
}

// field locates one LABEL of a leaf among the word's field values.
type field struct {
	idx int
	w   int
}

// decWord is one distinct dispatch key of a program: its leaf id and
// field values, or the decode error raised if the program ever dispatches
// it (data words are harmless).
type decWord struct {
	key    uint64
	leaf   int
	fields []uint64 // nField values, so the runner reads a fixed stride
	errMsg string
}

// maxLeaves bounds a model's coding leaves, one compiled handler each; a
// coding tree with more leaves is outside the supported class.
const maxLeaves = 4096

// Compile translates a decoded program against its model into a gosim
// Program. The model's IR is compiled on the machine's first Compile and
// reused after; the program adds only its decode table. Models outside
// the statically schedulable class (multiple pipelines, data-dependent
// activation delays, stalls/flushes), and programs with a word that
// decodes to a leaf the IR cannot express, return an error wrapping
// ErrUnsupported; callers fall back to the interpretive simulator. An
// image that does not fit program memory is refused with the error the
// simulator's LoadProgram raises, which does not wrap ErrUnsupported.
func Compile(mc *core.Machine, prog *asm.Program) (*Program, error) {
	mir, err := modelOf(mc)
	if err != nil {
		return nil, err
	}
	if err := mir.progMem.CheckSpan(prog.Origin, len(prog.Words)); err != nil {
		return nil, err
	}
	p := &Program{
		modelIR: mir,
		Model:   mc.Model,
		Origin:  prog.Origin,
	}
	// Mask the image to the word width once; dispatch keys mask further to
	// the dispatch register's width, exactly like coding.DecodeRoot.
	wordW := clampW(prog.Width)
	p.Words = make([]uint64, len(prog.Words))
	for i, w := range prog.Words {
		p.Words[i] = w & mask(wordW)
	}
	if mir.root == nil {
		return p, nil
	}
	// Decode the program's distinct words in program order, after the
	// all-zeros word the registers reset to and unloaded memory holds.
	keys := []uint64{0}
	for _, w := range p.Words {
		keys = append(keys, w&mask(p.dispW))
	}
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	n := len(slices.Compact(distinct))
	p.tab = newTable(n)
	p.words = make([]decWord, 0, n)
	fields := make([]uint64, n*p.nField)
	for _, k := range keys {
		if p.tab.get(k) >= 0 {
			continue
		}
		p.tab.put(k, len(p.words))
		p.words = append(p.words, decWord{key: k, fields: fields[:p.nField:p.nField]})
		fields = fields[p.nField:]
		if err := p.decodeWord(&p.words[len(p.words)-1]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// decodeWord decodes d's dispatch key into its leaf and fields.
func (p *Program) decodeWord(d *decWord) error {
	id, err := p.dec.Leaf(p.root, bitvec.New(d.key, p.rootRes.Width), d.fields)
	if err != nil {
		d.errMsg = fmt.Sprintf("word %#x does not decode: %v", d.key, err)
		return nil
	}
	if l := p.leaves[id]; l.err != nil {
		return l.err
	}
	d.leaf = id
	return nil
}

type modelMemo struct{}

type modelResult struct {
	mir *modelIR
	err error
}

// modelOf returns the model IR of mc's model, compiling it on first use
// and keeping it with the model (model.Model.Memo); its runner key hashes
// mc.Source, which every Machine of one model shares.
func modelOf(mc *core.Machine) (*modelIR, error) {
	r := mc.Model.Memo(modelMemo{}, func() any {
		mir, err := compileModel(mc)
		return modelResult{mir, err}
	}).(modelResult)
	return r.mir, r.err
}

// compileModel compiles the model half of the IR: state layout, reset
// and main behaviors, the activation schedule, and every coding leaf.
func compileModel(mc *core.Machine) (*modelIR, error) {
	m := mc.Model
	p := &modelIR{
		hash:     perf.HashString(mc.Source),
		latchIdx: map[*model.Resource]int{},
	}

	if len(m.Pipelines) > 1 {
		return nil, unsup("model has %d pipelines", len(m.Pipelines))
	}
	p.depth = 1
	if len(m.Pipelines) == 1 {
		p.pipe = m.Pipelines[0]
		p.depth = len(p.pipe.Stages)
		if p.depth < 1 {
			p.depth = 1
		}
	}

	pmName, err := mc.ProgramMemory()
	if err != nil {
		return nil, unsup("%v", err)
	}
	p.progMem = m.Resource(pmName)

	if h := m.Resource("halt"); h != nil {
		if h.IsAlias || h.IsMemory() {
			return nil, unsup("halt resource is not a plain scalar")
		}
		p.halt = h
	}

	// Mirror model.State's slot layout.
	for _, r := range m.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			for len(p.arrays) <= r.Slot {
				p.arrays = append(p.arrays, nil)
			}
			p.arrays[r.Slot] = r
			continue
		}
		for len(p.scalars) <= r.Slot {
			p.scalars = append(p.scalars, nil)
		}
		p.scalars[r.Slot] = r
		if r.Latch {
			p.latchIdx[r] = len(p.latches)
			p.latches = append(p.latches, r)
		}
	}

	b := &build{m: m, progMem: p.progMem}

	if op, ok := m.Ops["reset"]; ok {
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("reset: %v", err)
		}
		if in.Variant.Activation != nil {
			return nil, unsup("reset has an ACTIVATION section")
		}
		if in.Variant.Behavior != nil {
			p.resetB, err = compileHandler(b, in, false)
			if err != nil {
				return nil, fmt.Errorf("reset: %w", err)
			}
			// Reset runs before a run's print sink is attached, as in the
			// classic tools, so its prints reach no one.
			p.resetB = dropPrints(p.resetB)
		}
	}

	if op, ok := m.Ops["main"]; ok {
		if op.Pipe != nil {
			return nil, unsup("main is assigned to a pipeline stage")
		}
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("main: %v", err)
		}
		if in.Variant.Behavior != nil {
			p.mainB, err = compileHandler(b, in, false)
			if err != nil {
				return nil, fmt.Errorf("main: %w", err)
			}
		}
		if in.Variant.Activation != nil {
			if err := p.mainActivation(b, in, in.Variant.Activation.Items, nil); err != nil {
				return nil, err
			}
		}
	}

	// The dispatch root is discovered while compiling fetch-like handlers.
	// Main items never run past stage 0 (mainActivation refuses them), so
	// schedulability is a property of each leaf (buildLeaves).
	if root := b.root; root != nil {
		if root.RootResource == nil {
			return nil, unsup("coding root %s has no compare-to resource", root.Name)
		}
		rr := root.RootResource
		if rr.IsAlias || rr.IsMemory() || rr.Width < 1 {
			return nil, unsup("dispatch register %s is not a plain scalar", rr.Name)
		}
		p.root, p.rootRes, p.dispW = root, rr, rr.Width
		if p.progMem != nil && p.progMem.Width < p.dispW {
			p.dispW = p.progMem.Width
		}
		if err := p.checkDispatchSafety(b.writes); err != nil {
			return nil, err
		}
		p.dec = coding.For(m)
		if err := p.buildLeaves(b); err != nil {
			return nil, err
		}
	}
	p.nLoc = b.maxLoc
	return p, nil
}

// dropPrints removes the print statements from a statement list, at any
// depth.
func dropPrints(list []*stmt) []*stmt {
	kept := list[:0]
	for _, s := range list {
		if s.kind != sPrint {
			s.then, s.els = dropPrints(s.then), dropPrints(s.els)
			kept = append(kept, s)
		}
	}
	return kept
}

// compileHandler compiles one instance's behavior into IR statements.
func compileHandler(b *build, in *model.Instance, canDispatch bool) ([]*stmt, error) {
	if in.Variant == nil {
		if err := in.ResolveVariant(); err != nil {
			return nil, unsup("%s: %v", in.Op.Name, err)
		}
	}
	if in.Variant.Behavior == nil {
		return nil, nil
	}
	nloc := 0
	f := &fctx{
		b: b, inst: in, nloc: &nloc,
		locals:      make([]*localVar, in.Variant.Behavior.Slots),
		canDispatch: canDispatch,
		stack:       []*model.Operation{in.Op},
	}
	var out []*stmt
	if err := f.compileBlock(in.Variant.Behavior.Body, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", in.Op.Name, err)
	}
	return out, nil
}

// mainActivation walks the main operation's ACTIVATION items, compiling
// each ActRef target under the conjunction of the enclosing ActIf
// conditions, and recording the unconditional whole-pipeline shift.
func (p *modelIR) mainActivation(b *build, main *model.Instance, items []ast.ActItem, cond *expr) error {
	for _, item := range items {
		switch it := item.(type) {
		case *ast.ActRef:
			if it.Delay != 0 {
				return unsup("main activation of %s with delay %d", it.Name, it.Delay)
			}
			op := b.m.OpList[it.Index] // main reads no operand: a by-name target
			stage, err := p.targetStage(op)
			if err != nil {
				return err
			}
			if stage > 0 {
				// A staged main item inserts its own pipeline packet each
				// cycle, beside the dispatched word's: more than the one
				// word a stage holds.
				return unsup("main activates %s past stage 0", op.Name)
			}
			in := model.NewInstance(op)
			if err := in.ResolveVariant(); err != nil {
				return unsup("main target %s: %v", op.Name, err)
			}
			if in.Variant.Activation != nil {
				return unsup("main target %s has its own ACTIVATION", op.Name)
			}
			body, err := compileHandler(b, in, true)
			if err != nil {
				return err
			}
			if len(body) > 0 { // conditions have no side effects
				p.items = append(p.items, mainItem{cond: cond, body: body, opName: op.Name})
			}
		case *ast.ActPipeOp:
			if it.Op != "shift" || it.Stage != "" || it.Delay != 0 {
				return unsup("pipeline operation %s.%s %s", it.Pipe, it.Stage, it.Op)
			}
			if cond != nil {
				return unsup("conditional pipeline shift")
			}
			if p.shift {
				return unsup("multiple pipeline shifts per cycle")
			}
			p.shift = true
		case *ast.ActIf:
			c, err := p.compileActCond(b, main, it.Cond)
			if err != nil {
				return err
			}
			if err := p.mainActivation(b, main, it.Then, conj(cond, c)); err != nil {
				return err
			}
			if len(it.Else) > 0 {
				not := &expr{kind: eUn, op: "!", a: c, w: 1}
				if err := p.mainActivation(b, main, it.Else, conj(cond, not)); err != nil {
					return err
				}
			}
		default:
			return unsup("main activation item %T", item)
		}
	}
	return nil
}

func conj(a, b *expr) *expr {
	if a == nil {
		return b
	}
	return &expr{kind: eBin, op: "&&", a: a, b: b, w: 1}
}

// compileActCond compiles an ACTIVATION guard expression in the
// activating instance's context.
func (p *modelIR) compileActCond(b *build, in *model.Instance, e ast.Expr) (*expr, error) {
	nloc := 0
	f := &fctx{b: b, inst: in, nloc: &nloc}
	return f.compileExpr(e)
}

// targetStage maps an activation target onto the schedule: the
// operation's stage in the model's single pipeline, which is the number
// of cycles after its activation that it runs, or 0 for unassigned
// operations, which run in the activating cycle.
func (p *modelIR) targetStage(op *model.Operation) (int, error) {
	if op.Pipe == nil {
		return 0, nil
	}
	if op.Pipe != p.pipe {
		return 0, unsup("operation %s in unexpected pipeline %s", op.Name, op.Pipe.Name)
	}
	if op.StageIdx < 0 || op.StageIdx >= p.depth {
		return 0, unsup("operation %s stage %d out of range", op.Name, op.StageIdx)
	}
	return op.StageIdx, nil
}

// buildLeaves compiles one handler per coding leaf below the dispatch
// root, by the leaf's id. A leaf that fails to compile, or that breaks
// schedulability or dispatch safety, keeps its error instead of failing
// the model: only programs that contain it are unsupported.
func (p *modelIR) buildLeaves(b *build) error {
	if coding.RootCoding(p.root) == nil {
		return nil // no word decodes; Leaf reports why per word
	}
	n, nField, err := p.dec.Leaves(p.root)
	if err != nil {
		return unsup("%v", err)
	}
	if n > maxLeaves {
		return unsup("coding tree below %s has more than %d leaves", p.root.Name, maxLeaves)
	}
	p.nField = nField
	p.leaves = make([]*leaf, n)
	for id := range p.leaves {
		l := &leaf{id: id, work: make([][]*stmt, p.depth)}
		p.leaves[id] = l
		in, fields, err := p.dec.Shape(p.root, id)
		if err != nil {
			l.err = unsup("%v", err) // a gap: no word decodes to it
			continue
		}
		l.nField = len(fields)
		b.fields = map[*model.Instance]map[string]field{}
		for i, f := range fields {
			if b.fields[f.Node] == nil {
				b.fields[f.Node] = map[string]field{}
			}
			b.fields[f.Node][f.Label] = field{idx: i, w: f.Width}
		}
		b.writes = nil
		l.err = p.compileLeaf(b, l, in)
		if l.err == nil {
			l.err = p.checkDispatchSafety(b.writes)
		}
	}
	b.fields = nil
	return nil
}

// compileLeaf turns one leaf shape into a handler: the root's ACTIVATION
// names the bound instruction(s), each compiled in its own binding
// context at its own stage.
func (p *modelIR) compileLeaf(b *build, l *leaf, in *model.Instance) error {
	if in.Variant.Behavior != nil {
		return unsup("coding root %s has a BEHAVIOR section", in.Op.Name)
	}
	if in.Variant.Activation == nil {
		return nil
	}
	for _, item := range in.Variant.Activation.Items {
		ref, ok := item.(*ast.ActRef)
		if !ok {
			return unsup("decode activation item %T", item)
		}
		if ref.Delay != 0 {
			return unsup("decode activation with delay %d", ref.Delay)
		}
		child := in.Bindings[ref.Name]
		if ref.Kind == ast.RefOperation {
			child = model.NewInstance(b.m.OpList[ref.Index])
		}
		if child.Variant == nil {
			if err := child.ResolveVariant(); err != nil {
				return unsup("instruction %s: %v", child.Op.Name, err)
			}
		}
		if child.Variant.Activation != nil {
			return unsup("instruction %s has its own ACTIVATION", child.Op.Name)
		}
		stage, err := p.targetStage(child.Op)
		if err != nil {
			return err
		}
		// A target past stage 0 only ever executes because the main
		// activation shifts the pipeline every cycle.
		if stage > 0 && !p.shift {
			return unsup("staged activations without an unconditional pipeline shift")
		}
		// Instruction handlers never dispatch themselves: chained decode
		// would put a second packet in flight per cycle.
		body, err := compileHandler(b, child, false)
		if err != nil {
			return err
		}
		l.work[stage] = append(l.work[stage], body...)
		if l.name == "" {
			l.name = child.Op.Name
		}
	}
	return nil
}

// checkDispatchSafety proves the decode table sound for a set of
// compiled writes: the dispatch register only ever holds program-memory
// words (which every program's decode table covers exhaustively, zero
// included), because program memory is never written and every
// assignment to the register copies a program-memory element verbatim.
// The same proof lets the native runner leave program memory out of the
// state it reports, and dispatch a word by the address it was copied
// from, each address of the image decoded once.
func (p *modelIR) checkDispatchSafety(writes []writeRec) error {
	// Notes: a latched dispatch register stays safe (decode reads the
	// committed value, which still only ever holds program words), and a
	// register narrower than the word is handled by masking the dispatch
	// keys to dispW.
	rr := p.rootRes
	for _, w := range writes {
		switch w.lv.kind {
		case lLocal:
			continue
		case lElem:
			if w.lv.res == p.progMem {
				return unsup("behavior writes program memory %s", w.lv.res.Name)
			}
		case lSlice:
			if w.lv.res == rr {
				return unsup("partial write to dispatch register %s", rr.Name)
			}
			if w.lv.res == p.progMem {
				return unsup("behavior writes program memory %s", w.lv.res.Name)
			}
		case lScalar:
			if w.lv.res != rr {
				continue
			}
			if w.rhs == nil || w.rhs.kind != eElem || w.rhs.res != p.progMem {
				return unsup("dispatch register %s written from a non-program-memory value", rr.Name)
			}
		}
	}
	return nil
}
