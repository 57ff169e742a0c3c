package ast

import "golisa/internal/lexer"

// Stmt is a behavior-language statement. Concrete types: *Block, *DeclStmt,
// *ExprStmt, *AssignStmt, *IncDecStmt, *IfStmt, *WhileStmt, *DoWhileStmt,
// *ForStmt, *SwitchStmt, *BreakStmt, *ContinueStmt, *ReturnStmt, *EmptyStmt.
type Stmt interface{ stmtNode() }

// Block is a braced statement list with its own local-variable scope.
type Block struct {
	Pos   lexer.Pos
	Stmts []Stmt
}

func (*Block) stmtNode() {}

// DeclStmt declares a local variable, optionally initialized:
// int acc = 0;  bit[40] t;
type DeclStmt struct {
	Pos  lexer.Pos
	Type TypeSpec
	Name string
	Init Expr // may be nil

	Slot int // set by sema: the local's slot in its BEHAVIOR body's frame
}

func (*DeclStmt) stmtNode() {}

// ExprStmt evaluates an expression for its side effects (operation calls).
type ExprStmt struct {
	Pos lexer.Pos
	X   Expr
}

func (*ExprStmt) stmtNode() {}

// AssignStmt is lhs op rhs where op is one of = += -= *= /= %= &= |= ^= <<= >>=.
type AssignStmt struct {
	Pos lexer.Pos
	LHS Expr
	Op  string
	RHS Expr
}

func (*AssignStmt) stmtNode() {}

// IncDecStmt is x++ or x-- used as a statement.
type IncDecStmt struct {
	Pos lexer.Pos
	X   Expr
	Op  string // "++" or "--"
}

func (*IncDecStmt) stmtNode() {}

// IfStmt is if (cond) then [else].
type IfStmt struct {
	Pos  lexer.Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil

	// Guard, set by sema, lists the resources Cond names, by index into
	// Model.Resources, in source order and without repeats; names that
	// resolve to a local, label or operand are not resources. Hazard
	// attribution blames a stall or flush on its guards' resources.
	Guard []int
}

func (*IfStmt) stmtNode() {}

// WhileStmt is while (cond) body.
type WhileStmt struct {
	Pos  lexer.Pos
	Cond Expr
	Body Stmt
}

func (*WhileStmt) stmtNode() {}

// DoWhileStmt is do body while (cond);
type DoWhileStmt struct {
	Pos  lexer.Pos
	Body Stmt
	Cond Expr
}

func (*DoWhileStmt) stmtNode() {}

// ForStmt is for (init; cond; post) body. Any of the three may be nil.
type ForStmt struct {
	Pos  lexer.Pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
}

func (*ForStmt) stmtNode() {}

// SwitchStmt is a run-time switch on an integer tag. Cases do not fall
// through (each case body is a block; break is accepted and redundant),
// which matches how LISA models use switch.
type SwitchStmt struct {
	Pos   lexer.Pos
	Tag   Expr
	Cases []SwitchCase

	Guard []int // set by sema: the resources Tag names, as for IfStmt
}

func (*SwitchStmt) stmtNode() {}

// SwitchCase is one case (or default) arm of a SwitchStmt.
type SwitchCase struct {
	Vals    []Expr
	Stmts   []Stmt
	Default bool
}

// BreakStmt exits the innermost loop or switch.
type BreakStmt struct{ Pos lexer.Pos }

func (*BreakStmt) stmtNode() {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos lexer.Pos }

func (*ContinueStmt) stmtNode() {}

// ReturnStmt exits the operation's behavior early.
type ReturnStmt struct {
	Pos lexer.Pos
	X   Expr // may be nil
}

func (*ReturnStmt) stmtNode() {}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ Pos lexer.Pos }

func (*EmptyStmt) stmtNode() {}

// Expr is a behavior-language expression. Concrete types: *NumLit, *StrLit,
// *Ident, *IndexExpr, *BitsExpr, *CallExpr, *UnaryExpr, *BinaryExpr,
// *CondExpr.
type Expr interface{ exprNode() }

// NumLit is an integer literal.
type NumLit struct {
	Pos lexer.Pos
	Val uint64
}

func (*NumLit) exprNode() {}

// StrLit is a string literal (only meaningful as a print argument).
type StrLit struct {
	Pos lexer.Pos
	Val string
}

func (*StrLit) exprNode() {}

// Ident names a local variable, a label, an operand, a resource or an
// operation. Sema resolves it once, at load, and records what it names.
type Ident struct {
	Pos  lexer.Pos
	Name string

	// Set by sema.
	Kind  RefKind
	Index int      // RefLocal: the slot; RefResource, RefOperation: the model index
	Type  TypeSpec // RefLocal: the declared type
}

func (*Ident) exprNode() {}

// IndexExpr is x[i] — array/memory element access.
type IndexExpr struct {
	Pos lexer.Pos
	X   Expr
	I   Expr
}

func (*IndexExpr) exprNode() {}

// BitsExpr is x<hi..lo> — bit-slice access on a resource or variable.
type BitsExpr struct {
	Pos lexer.Pos
	X   Expr
	Hi  Expr
	Lo  Expr
}

func (*BitsExpr) exprNode() {}

// CallExpr is name(args...). The callee may be a dotted path (e.g.
// fetch_pipe.DP.stall) naming a pipeline built-in, a behavior builtin
// (abs, min, max, saturate, sign_extend, zero_extend, ...), print, or an
// operation/group invocation. Only builtins have a value: the other calls
// are statements.
type CallExpr struct {
	Pos  lexer.Pos
	Name string
	Args []Expr

	// Set by sema.
	Kind    RefKind // RefBuiltin, RefPrint, RefPipe, RefOperand or RefOperation
	Builtin Builtin // RefBuiltin
	Index   int     // RefOperation: index into Model.OpList
	Pipe    PipeRef // RefPipe
}

func (*CallExpr) exprNode() {}

// UnaryExpr is op x for op in - + ! ~.
type UnaryExpr struct {
	Pos lexer.Pos
	Op  string
	X   Expr
}

func (*UnaryExpr) exprNode() {}

// BinaryExpr is l op r with C semantics and precedence.
type BinaryExpr struct {
	Pos lexer.Pos
	Op  string
	L   Expr
	R   Expr
}

func (*BinaryExpr) exprNode() {}

// CondExpr is c ? t : f.
type CondExpr struct {
	Pos lexer.Pos
	C   Expr
	T   Expr
	F   Expr
}

func (*CondExpr) exprNode() {}

// RefKind is what a name in BEHAVIOR, EXPRESSION or ACTIVATION code
// denotes. Sema resolves every name once, at load, in this order: local,
// label, operand, resource, operation. The executors read the kind and
// index it records and look up no name.
type RefKind uint8

// Name kinds.
const (
	RefNone      RefKind = iota // not resolved
	RefLocal                    // local variable of the BEHAVIOR body
	RefLabel                    // decoded operand field: Instance.Labels
	RefOperand                  // group, REFERENCE or CODING-named operation: Instance.Bindings
	RefResource                 // machine resource: Model.Resources
	RefOperation                // operation run by name: Model.OpList
	RefBuiltin                  // builtin function (calls only)
	RefPipe                     // pipeline built-in (calls only)
	RefPrint                    // print (calls only)
)

// Builtin is a value-returning builtin function of the behavior language.
type Builtin uint8

// Builtins.
const (
	BuiltinAbs Builtin = iota
	BuiltinMin
	BuiltinMax
	BuiltinSaturate
	BuiltinSignExtend
	BuiltinZeroExtend
	BuiltinAddSat
	BuiltinSubSat
	BuiltinBits
	BuiltinWaitStates
)

// PipeRef is a resolved pipeline built-in.
type PipeRef struct {
	Pipe  int   // index into Model.Pipelines
	Stage int   // stage index; -1 for the whole pipeline
	Op    uint8 // a pipeline.Op
}
