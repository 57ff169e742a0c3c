// Package ast defines the abstract syntax tree for LISA descriptions.
//
// A Description is the parse of one LISA source file (or a concatenation of
// files): resource declarations, pipeline declarations and operations. The
// operation body is an ordered list of sections (DECLARE, CODING, SYNTAX,
// SEMANTICS, BEHAVIOR, EXPRESSION, ACTIVATION, user-defined), possibly nested
// under compile-time SWITCH/CASE or IF/ELSE conditional structuring
// (paper §3.2.5).
package ast

import "golisa/internal/lexer"

// Description is a parsed LISA model.
type Description struct {
	Resources  []*ResourceDecl
	Pipelines  []*PipelineDecl
	Operations []*Operation
}

// ResourceClass is the optional classifying keyword on a resource
// declaration (paper §3.1).
type ResourceClass int

// Resource classes.
const (
	ClassNone ResourceClass = iota
	ClassRegister
	ClassControlRegister
	ClassProgramCounter
	ClassDataMemory
	ClassProgramMemory
)

func (c ResourceClass) String() string {
	switch c {
	case ClassRegister:
		return "REGISTER"
	case ClassControlRegister:
		return "CONTROL_REGISTER"
	case ClassProgramCounter:
		return "PROGRAM_COUNTER"
	case ClassDataMemory:
		return "DATA_MEMORY"
	case ClassProgramMemory:
		return "PROGRAM_MEMORY"
	default:
		return "RESOURCE"
	}
}

// TypeKind distinguishes the base types of the behavior language.
type TypeKind int

// Behavior-language base types.
const (
	TypeInt  TypeKind = iota // 32-bit signed
	TypeLong                 // 64-bit signed
	TypeBit                  // bit[N], unsigned, width N
	TypeUint                 // 32-bit unsigned
)

// TypeSpec is a resolved type with an explicit bit width.
type TypeSpec struct {
	Kind  TypeKind
	Width int
}

// Signed reports whether values of this type compare/shift as signed.
func (t TypeSpec) Signed() bool { return t.Kind == TypeInt || t.Kind == TypeLong }

// ResourceDecl declares one storage object of the machine (register, memory,
// counter) with optional array size, banking, address range, aliasing and
// memory wait states.
type ResourceDecl struct {
	Pos   lexer.Pos
	Class ResourceClass
	Type  TypeSpec
	Name  string

	Banks int // mem[4]([0x20000]): 4 banks; 0 when not banked

	// Array/memory extent: either Size elements starting at 0, or an
	// explicit address range [RangeLo..RangeHi].
	Size     uint64
	RangeLo  uint64
	RangeHi  uint64
	HasRange bool

	Wait int // extension: access wait states (memory interface modelling)

	// Latch marks non-blocking semantics: writes commit at the end of the
	// control step (extension; models pipeline latches like pc and ir).
	Latch bool

	// ALIAS of other[hi..lo]: this resource is a window onto another.
	IsAlias bool
	AliasOf string
	AliasHi int
	AliasLo int
}

// IsMemory reports whether the declaration has an array extent.
func (r *ResourceDecl) IsMemory() bool { return r.Size > 0 || r.HasRange || r.Banks > 0 }

// PipelineDecl declares a named pipeline with its ordered stage list.
type PipelineDecl struct {
	Pos    lexer.Pos
	Name   string
	Stages []string
}

// Operation is one LISA OPERATION definition.
type Operation struct {
	Pos   lexer.Pos
	Name  string
	Pipe  string // IN Pipe.Stage assignment; empty when unassigned
	Stage string
	Alias bool // OPERATION name ALIAS { ... }

	Sections []Section
}

// Section is one operation-body section. Concrete types: *DeclareSec,
// *CodingSec, *SyntaxSec, *SemanticsSec, *BehaviorSec, *ExpressionSec,
// *ActivationSec, *SwitchSec, *IfSec, *CustomSec.
type Section interface{ secNode() }

// DeclareSec collects symbol declarations local to the operation.
type DeclareSec struct {
	Pos    lexer.Pos
	Groups []*GroupDecl
	Labels []string // inter-section references
	Refs   []string // declared operation references (REFERENCE)
	Enums  []string // declared instance identifiers (INSTANCE)
}

func (*DeclareSec) secNode() {}

// GroupDecl declares one or more group symbols sharing a member list:
// GROUP Dest, Src1, Src2 = { register };
type GroupDecl struct {
	Pos     lexer.Pos
	Names   []string
	Members []string
}

// CodingSec describes the binary image of the operation. If CompareTo is
// nonempty the section is a coding root: the named resource's value is
// matched against the element sequence (paper §3.2.1).
type CodingSec struct {
	Pos       lexer.Pos
	CompareTo string
	Elems     []CodingElem
}

func (*CodingSec) secNode() {}

// CodingElem is one element of a coding sequence. Concrete types:
// *CodingPattern, *CodingField, *CodingRef.
type CodingElem interface{ codingNode() }

// CodingPattern is a literal bit pattern of 0, 1 and x (don't care),
// MSB first, e.g. 0b0000010000.
type CodingPattern struct {
	Pos  lexer.Pos
	Bits string // digits '0','1','x'; len == width
}

func (*CodingPattern) codingNode() {}

// CodingField is a labelled operand field: index:0bx[4] declares a 4-bit
// field bound to the label index.
type CodingField struct {
	Pos   lexer.Pos
	Label string
	Bits  string // pattern after replication, e.g. "xxxx"
}

func (*CodingField) codingNode() {}

// CodingRef inserts the coding of another operation or group at this
// position.
type CodingRef struct {
	Pos  lexer.Pos
	Name string
}

func (*CodingRef) codingNode() {}

// SyntaxSec describes the assembly syntax of the operation.
type SyntaxSec struct {
	Pos   lexer.Pos
	Elems []SyntaxElem
}

func (*SyntaxSec) secNode() {}

// SyntaxElem is one element of the assembly syntax. Concrete types:
// *SyntaxString, *SyntaxRef.
type SyntaxElem interface{ syntaxNode() }

// SyntaxString is a literal mnemonic or separator, e.g. "ADD" or ",".
type SyntaxString struct {
	Pos  lexer.Pos
	Text string
}

func (*SyntaxString) syntaxNode() {}

// SyntaxRef references another operation/group (its syntax is inserted) or a
// label (a numeric parameter is parsed/printed). Format is the optional
// formatting marker after ':': "#u" unsigned, "#s" signed, "#x" hex.
type SyntaxRef struct {
	Pos    lexer.Pos
	Name   string
	Format string
}

func (*SyntaxRef) syntaxNode() {}

// SemanticsSec records the compiler-view semantics as raw text; it is kept
// distinct from BEHAVIOR exactly as the paper prescribes (§3, "distinction
// between behavior and semantics").
type SemanticsSec struct {
	Pos  lexer.Pos
	Text string
}

func (*SemanticsSec) secNode() {}

// BehaviorSec holds the executable behavior (a C-subset block).
type BehaviorSec struct {
	Pos  lexer.Pos
	Body *Block

	Slots int // set by sema: the number of local-variable slots Body needs
}

func (*BehaviorSec) secNode() {}

// ExpressionSec identifies a resource-access expression used by referencing
// operations (the nml "mode" mechanism, paper §3.2.3).
type ExpressionSec struct {
	Pos lexer.Pos
	X   Expr
}

func (*ExpressionSec) secNode() {}

// ActivationSec schedules other operations relative to the current one
// (paper §3.2.4).
type ActivationSec struct {
	Pos   lexer.Pos
	Items []ActItem
}

func (*ActivationSec) secNode() {}

// ActItem is one element of an activation list. Concrete types: *ActRef,
// *ActPipeOp, *ActIf, *ActSwitch.
type ActItem interface{ actNode() }

// ActRef activates an operation or group. Delay counts the delayed-activation
// separators (';') preceding this item within its list: each adds one control
// step on top of the spatial distance.
type ActRef struct {
	Pos   lexer.Pos
	Name  string
	Delay int

	// Set by sema: RefOperand (a binding of the activating instance) or
	// RefOperation, with Index into Model.OpList.
	Kind  RefKind
	Index int
}

func (*ActRef) actNode() {}

// ActPipeOp is a built-in pipeline operation: pipe.shift(), pipe.stall(),
// pipe.flush(), pipe.stage.stall(), pipe.stage.flush(), pipe.stage.insert(op).
type ActPipeOp struct {
	Pos   lexer.Pos
	Pipe  string
	Stage string // empty for whole-pipeline ops
	Op    string // "shift", "stall", "flush"
	Delay int

	Ref PipeRef // set by sema
}

func (*ActPipeOp) actNode() {}

// ActIf is an if-then-else inside an activation section; the condition is a
// behavior expression evaluated at run time.
type ActIf struct {
	Pos  lexer.Pos
	Cond Expr
	Then []ActItem
	Else []ActItem

	Guard []int // set by sema: the resources Cond names, as for IfStmt
}

func (*ActIf) actNode() {}

// ActSwitch is a switch-case inside an activation section.
type ActSwitch struct {
	Pos   lexer.Pos
	Tag   Expr
	Cases []ActCase

	Guard []int // set by sema: the resources Tag names, as for IfStmt
}

func (*ActSwitch) actNode() {}

// ActCase is one case of an ActSwitch.
type ActCase struct {
	Vals    []Expr // empty means default
	Items   []ActItem
	Default bool
}

// SwitchSec is compile-time conditional operation structuring over a group:
// SWITCH (Group) { CASE member: { sections } ... } (paper Example 6).
type SwitchSec struct {
	Pos   lexer.Pos
	Group string
	Cases []SwitchSecCase
}

func (*SwitchSec) secNode() {}

// SwitchSecCase is one CASE (or DEFAULT) arm of a SwitchSec.
type SwitchSecCase struct {
	Members  []string
	Sections []Section
	Default  bool
}

// IfSec is compile-time IF (Group == member) { sections } ELSE { sections }.
type IfSec struct {
	Pos    lexer.Pos
	Group  string
	Member string
	Negate bool // IF (Group != member)
	Then   []Section
	Else   []Section
}

func (*IfSec) secNode() {}

// CustomSec is a user-defined section (e.g. POWER) stored as raw text; the
// paper allows designers to add arbitrary extra sections.
type CustomSec struct {
	Pos  lexer.Pos
	Name string
	Text string
}

func (*CustomSec) secNode() {}
