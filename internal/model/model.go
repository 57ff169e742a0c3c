// Package model defines the intermediate database built from a parsed LISA
// description. The paper's tool flow is: parser → intermediate database →
// generated tools (assembler, disassembler, simulators); this package is
// that database.
//
// It holds the resolved memory/resource model (Resource, Pipeline), the
// operation database with flattened section variants (compile-time
// SWITCH/CASE structuring resolved into guarded Variants), decoded
// operation Instances, and the machine State operated on by simulation.
package model

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"golisa/internal/ast"
	"golisa/internal/bitvec"
)

// Model is the intermediate database for one machine description.
type Model struct {
	Name string

	Resources []*Resource
	Pipelines []*Pipeline

	// Operations in declaration order plus by-name index.
	OpList []*Operation
	Ops    map[string]*Operation

	// MaxActDelay is the longest ';' delay of any ACTIVATION item.
	MaxActDelay int

	resByName  map[string]*Resource
	pipeByName map[string]*Pipeline

	// SourceLines is the number of non-blank source lines of the parsed
	// description, recorded for the paper's model-statistics experiment.
	SourceLines int

	memo sync.Map // Memo's entries, by key
}

// Memo returns what build returns for key, calling build only the first
// time key is asked for on this model; concurrent callers wait for that
// one call. A tool that derives a per-model artifact from the database
// (the coding decoder, gosim's model IR) keeps it here, so the artifact
// lives exactly as long as the model does. What build returns must not
// change afterwards: the model's tools share it across goroutines.
func (m *Model) Memo(key any, build func() any) any {
	e, ok := m.memo.Load(key)
	if !ok {
		e, _ = m.memo.LoadOrStore(key, &memoEntry{})
	}
	me := e.(*memoEntry)
	me.once.Do(func() { me.v = build() })
	return me.v
}

type memoEntry struct {
	once sync.Once
	v    any
}

// NewModel creates an empty database.
func NewModel(name string) *Model {
	return &Model{
		Name:       name,
		Ops:        map[string]*Operation{},
		resByName:  map[string]*Resource{},
		pipeByName: map[string]*Pipeline{},
	}
}

// Resource is a resolved storage object: a register, counter or memory.
// Scalars live in State.Scalars[Slot]; memories in State.Arrays[Slot].
type Resource struct {
	Name   string
	Class  ast.ResourceClass
	Type   ast.TypeSpec
	Width  int
	Signed bool

	// Extent. Size==0 means scalar. Base is the first valid address
	// (PROGRAM_MEMORY int m[0x100..0xffff] has Base 0x100).
	Size  uint64
	Base  uint64
	Banks int // >0: banked memory, Size elements per bank

	Wait int // access wait states (memory interface modelling)

	// Latch resources have non-blocking write semantics: State.Write
	// buffers the value until State.Commit at the end of the control step.
	Latch bool

	IsAlias bool
	AliasOf *Resource
	AliasHi int
	AliasLo int

	Slot  int // index into State.Scalars or State.Arrays
	Index int // position in Model.Resources: the resource's id in trace events
}

// IsMemory reports whether the resource has an array extent.
func (r *Resource) IsMemory() bool { return r.Size > 0 }

// ProgramMemory returns the model's program memory, the first
// PROGRAM_MEMORY resource with an array extent, or nil when it has none.
func (m *Model) ProgramMemory() *Resource {
	for _, r := range m.Resources {
		if r.Class == ast.ClassProgramMemory && r.IsMemory() {
			return r
		}
	}
	return nil
}

// Total returns the total number of elements across banks.
func (r *Resource) Total() uint64 {
	if r.Banks > 0 {
		return r.Size * uint64(r.Banks)
	}
	return r.Size
}

// Pipeline is a resolved pipeline declaration.
type Pipeline struct {
	Name   string
	Stages []string
	Index  int // position in Model.Pipelines

	stageIdx map[string]int
}

// StageIndex returns the index of the named stage, or -1.
func (p *Pipeline) StageIndex(name string) int {
	if i, ok := p.stageIdx[name]; ok {
		return i
	}
	return -1
}

// Depth returns the number of stages.
func (p *Pipeline) Depth() int { return len(p.Stages) }

// AddResource registers a resource. It returns an error on duplicates.
func (m *Model) AddResource(r *Resource) error {
	if _, dup := m.resByName[r.Name]; dup {
		return fmt.Errorf("duplicate resource %q", r.Name)
	}
	r.Index = len(m.Resources)
	m.Resources = append(m.Resources, r)
	m.resByName[r.Name] = r
	return nil
}

// Resource looks up a resource by name.
func (m *Model) Resource(name string) *Resource { return m.resByName[name] }

// AddPipeline registers a pipeline. It returns an error on duplicates.
func (m *Model) AddPipeline(p *Pipeline) error {
	if _, dup := m.pipeByName[p.Name]; dup {
		return fmt.Errorf("duplicate pipeline %q", p.Name)
	}
	if _, dup := m.resByName[p.Name]; dup {
		return fmt.Errorf("pipeline %q collides with resource of the same name", p.Name)
	}
	p.Index = len(m.Pipelines)
	p.stageIdx = make(map[string]int, len(p.Stages))
	for i, s := range p.Stages {
		if _, dup := p.stageIdx[s]; dup {
			return fmt.Errorf("pipeline %q: duplicate stage %q", p.Name, s)
		}
		p.stageIdx[s] = i
	}
	m.Pipelines = append(m.Pipelines, p)
	m.pipeByName[p.Name] = p
	return nil
}

// Pipeline looks up a pipeline by name.
func (m *Model) Pipeline(name string) *Pipeline { return m.pipeByName[name] }

// AddOperation registers an operation. It returns an error on duplicates.
func (m *Model) AddOperation(op *Operation) error {
	if _, dup := m.Ops[op.Name]; dup {
		return fmt.Errorf("duplicate operation %q", op.Name)
	}
	op.Index = len(m.OpList)
	m.OpList = append(m.OpList, op)
	m.Ops[op.Name] = op
	return nil
}

// Operation is one resolved LISA operation.
type Operation struct {
	Name  string
	Src   *ast.Operation
	Alias bool
	Index int // position in Model.OpList

	// Pipeline-stage assignment (IN pipe.stage); Pipe nil when unassigned.
	Pipe     *Pipeline
	StageIdx int

	// Declared symbols.
	Groups map[string]*Group
	Labels map[string]bool
	Refs   map[string]*Operation // REFERENCE decls, resolved

	// Variants are the flattened section sets after compile-time SWITCH/IF
	// structuring. There is always at least one. Guards pin group-member
	// selections; the first variant whose guards match a binding wins.
	Variants []*Variant

	// CodingWidth is the total bit width of the operation's coding, or 0
	// when the operation has no coding (or is a coding root).
	CodingWidth int

	// IsCodingRoot marks operations whose CODING compares a resource
	// against the coding tree (paper Example 3).
	IsCodingRoot bool
	// ReadsOperands marks operations whose code reads a label or an
	// operand: only a decoded instance can run one, so unless it is a
	// coding root (which the simulator decodes when it runs), nothing
	// activates or calls it by name.
	ReadsOperands bool
	// RootResource is the compared resource for coding roots.
	RootResource *Resource
}

// HasStage reports whether the operation is assigned to a pipeline stage.
func (o *Operation) HasStage() bool { return o.Pipe != nil }

// Group is a named list of alternative operations (nml "or-rules").
type Group struct {
	Name    string
	Owner   *Operation
	Members []*Operation
}

// MemberIndex returns the position of op in the group, or -1.
func (g *Group) MemberIndex(op *Operation) int {
	for i, m := range g.Members {
		if m == op {
			return i
		}
	}
	return -1
}

// Guard pins one group of an operation to (or away from) a specific member.
type Guard struct {
	Group  string
	Member *Operation
	Negate bool
}

// Variant is one flattened section set of an operation.
type Variant struct {
	Guards []Guard

	Coding     *ast.CodingSec
	Syntax     *ast.SyntaxSec
	Behavior   *ast.BehaviorSec
	Expression *ast.ExpressionSec
	Activation *ast.ActivationSec
	Semantics  string
	Custom     map[string]string
}

// Matches reports whether the variant's guards are satisfied by the given
// group-member selection.
func (v *Variant) Matches(sel map[string]*Operation) bool {
	for _, g := range v.Guards {
		m, ok := sel[g.Group]
		if !ok {
			return false
		}
		if g.Negate == (m == g.Member) {
			return false
		}
	}
	return true
}

// SelectVariant returns the first variant whose guards are satisfied by sel,
// or nil.
func (o *Operation) SelectVariant(sel map[string]*Operation) *Variant {
	for _, v := range o.Variants {
		if v.Matches(sel) {
			return v
		}
	}
	return nil
}

// Stats summarizes a model for the paper's §4 complexity table.
type Stats struct {
	ModelName      string
	Resources      int
	Pipelines      int
	PipelineStages int
	Operations     int
	Instructions   int // operations reachable from the coding root with syntax
	Aliases        int
	SourceLines    int
	LinesPerOp     float64

	// Coding-tree shape: number of coding roots, the maximum reference
	// depth of the decode tree below any root, and the distribution of
	// per-operation coding widths (operations with a CODING section).
	CodingRoots    int
	CodingDepth    int
	CodedOps       int
	MinCodingWidth int
	MaxCodingWidth int
	AvgCodingWidth float64
}

// ComputeStats derives the §4 statistics from the database.
func (m *Model) ComputeStats() Stats {
	s := Stats{
		ModelName:   m.Name,
		Resources:   len(m.Resources),
		Pipelines:   len(m.Pipelines),
		Operations:  len(m.OpList),
		SourceLines: m.SourceLines,
	}
	for _, p := range m.Pipelines {
		s.PipelineStages += len(p.Stages)
	}
	// Instructions are the direct members of the coding roots' groups (the
	// machine's instruction set) that carry a mnemonic syntax; operand
	// operations referenced deeper in the tree are not instructions.
	counted := map[*Operation]bool{}
	for _, root := range m.OpList {
		if !root.IsCodingRoot {
			continue
		}
		for _, g := range root.Groups {
			for _, op := range g.Members {
				if counted[op] {
					continue
				}
				counted[op] = true
				if !hasMnemonic(op) {
					continue
				}
				if op.Alias {
					s.Aliases++
				} else {
					s.Instructions++
				}
			}
		}
	}
	if s.Operations > 0 {
		s.LinesPerOp = float64(s.SourceLines) / float64(s.Operations)
	}
	var widthSum int
	for _, op := range m.OpList {
		if op.IsCodingRoot {
			s.CodingRoots++
			if d := m.codingDepth(op, map[*Operation]bool{}); d > s.CodingDepth {
				s.CodingDepth = d
			}
		}
		if op.CodingWidth <= 0 {
			continue
		}
		s.CodedOps++
		widthSum += op.CodingWidth
		if s.MinCodingWidth == 0 || op.CodingWidth < s.MinCodingWidth {
			s.MinCodingWidth = op.CodingWidth
		}
		if op.CodingWidth > s.MaxCodingWidth {
			s.MaxCodingWidth = op.CodingWidth
		}
	}
	if s.CodedOps > 0 {
		s.AvgCodingWidth = float64(widthSum) / float64(s.CodedOps)
	}
	return s
}

// codingDepth returns the maximum depth of the coding reference tree rooted
// at op: 1 for an operation whose coding references no other operation,
// 1 + max(children) otherwise. The visiting set breaks reference cycles.
func (m *Model) codingDepth(op *Operation, visiting map[*Operation]bool) int {
	if visiting[op] {
		return 0
	}
	visiting[op] = true
	defer delete(visiting, op)
	deepest := 0
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
					if d := m.codingDepth(mem, visiting); d > deepest {
						deepest = d
					}
				}
			} else if child := m.Ops[ref.Name]; child != nil {
				if d := m.codingDepth(child, visiting); d > deepest {
					deepest = d
				}
			}
		}
	}
	return 1 + deepest
}

// hasMnemonic reports whether any variant's syntax contains a literal
// beginning with a letter (the mnemonic).
func hasMnemonic(op *Operation) bool {
	for _, v := range op.Variants {
		if v.Syntax == nil {
			continue
		}
		for _, e := range v.Syntax.Elems {
			if str, ok := e.(*ast.SyntaxString); ok && str.Text != "" {
				c := str.Text[0]
				if (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') {
					return true
				}
			}
		}
	}
	return false
}

// String renders the stats as the §4-style summary line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d resources, %d operations, %d instructions + %d aliases, %d lines (%.1f lines/op)",
		s.ModelName, s.Resources, s.Operations, s.Instructions, s.Aliases, s.SourceLines, s.LinesPerOp)
}

// SortedCustomSections returns the union of custom-section names used across
// all operations, sorted (used by the documentation generator).
func (m *Model) SortedCustomSections() []string {
	set := map[string]bool{}
	for _, op := range m.OpList {
		for _, v := range op.Variants {
			for name := range v.Custom {
				set[name] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Instance is a bound occurrence of an operation: group selections, child
// instances and decoded label field values. Decoding builds instance trees
// from instruction words; the assembler builds them from assembly text; the
// simulator executes them.
//
// Instances are immutable once bound: after construction (and at the
// latest after ResolveVariant) no field is written again, which is what
// makes cached instances shareable across control steps and — via
// sim.Artifact — across simulators on different goroutines. The only
// post-construction write anywhere is ResolveVariant's caching of the
// variant selection; instances placed in shared caches must have their
// variants resolved eagerly (the decoder and artifact builder both do)
// so that lazy resolution never races.
type Instance struct {
	Op      *Operation
	Variant *Variant

	// Labels holds decoded/parsed operand field values by label name.
	Labels map[string]bitvec.Value

	// Bindings maps group names and reference names to child instances.
	Bindings map[string]*Instance

	// Code is an execution engine's compiled form of the instance, set
	// once: before the instance is shared, or by the one engine that
	// owns it.
	Code any
}

// NewInstance creates an instance of op with its variant left unselected.
func NewInstance(op *Operation) *Instance {
	return &Instance{
		Op:       op,
		Labels:   map[string]bitvec.Value{},
		Bindings: map[string]*Instance{},
	}
}

// Selection returns the group→member mapping implied by the bindings,
// used to select variants.
func (in *Instance) Selection() map[string]*Operation {
	sel := make(map[string]*Operation, len(in.Bindings))
	for name, child := range in.Bindings {
		if child != nil {
			sel[name] = child.Op
		}
	}
	return sel
}

// ResolveVariant selects and caches the variant matching the current
// bindings. It returns an error when no variant matches.
func (in *Instance) ResolveVariant() error {
	v := in.Op.SelectVariant(in.Selection())
	if v == nil {
		return fmt.Errorf("operation %s: no variant matches binding", in.Op.Name)
	}
	in.Variant = v
	return nil
}

// String renders the instance tree compactly for diagnostics.
func (in *Instance) String() string {
	var sb strings.Builder
	in.write(&sb)
	return sb.String()
}

func (in *Instance) write(sb *strings.Builder) {
	sb.WriteString(in.Op.Name)
	if len(in.Labels) == 0 && len(in.Bindings) == 0 {
		return
	}
	sb.WriteByte('(')
	first := true
	names := make([]string, 0, len(in.Bindings))
	for n := range in.Bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(sb, "%s=", n)
		in.Bindings[n].write(sb)
	}
	labels := make([]string, 0, len(in.Labels))
	for n := range in.Labels {
		labels = append(labels, n)
	}
	sort.Strings(labels)
	for _, n := range labels {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(sb, "%s=%d", n, in.Labels[n].Uint())
	}
	sb.WriteByte(')')
}
