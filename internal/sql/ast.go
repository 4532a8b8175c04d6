package sql

import (
	"strings"

	"streamrel/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// Expr is any scalar expression node.
type Expr interface {
	exprNode()
	String() string
}

// ---------------------------------------------------------------- DDL/DML

// ColumnDef is one column in a CREATE TABLE or CREATE STREAM.
type ColumnDef struct {
	Name   string
	Type   types.Type
	CQTime bool // marked CQTIME; streams only
	// CQTimeSystem marks "CQTIME SYSTEM": the engine stamps arrival time
	// instead of trusting the inserted value.
	CQTimeSystem bool
}

// CreateTable is CREATE TABLE name (cols…).
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	IfNotExists bool
}

// CreateStream is CREATE STREAM name (cols…) with exactly one CQTIME column.
// PartitionBy names the column a shard router hashes to place rows
// (CREATE STREAM … PARTITION BY col); empty means unpartitioned.
type CreateStream struct {
	Name        string
	Columns     []ColumnDef
	PartitionBy string
	IfNotExists bool
}

// CreateDerivedStream is CREATE STREAM name AS select — an always-on CQ.
type CreateDerivedStream struct {
	Name        string
	Query       *Select
	IfNotExists bool
}

// CreateView is CREATE VIEW name AS select. If the query references a
// stream it is a Streaming View, instantiated when used (paper §3.2).
type CreateView struct {
	Name        string
	Query       *Select
	IfNotExists bool
}

// ChannelMode selects how a channel writes into its table (paper §3.3).
type ChannelMode int

// Channel modes.
const (
	ChannelAppend  ChannelMode = iota // add new results to the table
	ChannelReplace                    // each window's results replace the previous
)

func (m ChannelMode) String() string {
	if m == ChannelReplace {
		return "REPLACE"
	}
	return "APPEND"
}

// CreateChannel is CREATE CHANNEL name FROM stream INTO table APPEND|REPLACE.
type CreateChannel struct {
	Name        string
	From        string // derived stream name
	Into        string // table name (becomes an Active Table)
	Mode        ChannelMode
	IfNotExists bool
}

// CreateIndex is CREATE INDEX name ON table (cols…).
type CreateIndex struct {
	Name        string
	Table       string
	Columns     []string
	IfNotExists bool
}

// ObjectKind names a droppable catalog object class.
type ObjectKind int

// Object kinds.
const (
	ObjTable ObjectKind = iota
	ObjStream
	ObjView
	ObjChannel
	ObjIndex
)

func (k ObjectKind) String() string {
	switch k {
	case ObjTable:
		return "TABLE"
	case ObjStream:
		return "STREAM"
	case ObjView:
		return "VIEW"
	case ObjChannel:
		return "CHANNEL"
	case ObjIndex:
		return "INDEX"
	}
	return "?"
}

// Drop is DROP kind name.
type Drop struct {
	Kind     ObjectKind
	Name     string
	IfExists bool
}

// Insert is INSERT INTO table [(cols…)] VALUES… | select.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr // literal rows; nil if Query is set
	Query   *Select
}

// Update is UPDATE table SET col = expr… [WHERE…].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause item.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM table [WHERE…].
type Delete struct {
	Table string
	Where Expr
}

// Truncate is TRUNCATE table.
type Truncate struct{ Table string }

// Show is SHOW TABLES|STREAMS|VIEWS|CHANNELS.
type Show struct{ What string }

// Explain wraps a statement for plan display. With Analyze the statement
// is executed and per-operator row counts and timings are reported. Params
// is the highest $n in Stmt (0: none).
type Explain struct {
	Stmt    Statement
	Analyze bool
	Params  int
}

func (*CreateTable) stmtNode()         {}
func (*CreateStream) stmtNode()        {}
func (*CreateDerivedStream) stmtNode() {}
func (*CreateView) stmtNode()          {}
func (*CreateChannel) stmtNode()       {}
func (*CreateIndex) stmtNode()         {}
func (*Drop) stmtNode()                {}
func (*Insert) stmtNode()              {}
func (*Update) stmtNode()              {}
func (*Delete) stmtNode()              {}
func (*Truncate) stmtNode()            {}
func (*Show) stmtNode()                {}
func (*Explain) stmtNode()             {}
func (*Select) stmtNode()              {}

// ---------------------------------------------------------------- SELECT

// Select is a (possibly continuous) query block. Set operations chain via
// SetOp.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // joined with CROSS semantics when >1 (plus WHERE)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr
	Offset   Expr
	SetOp    *SetOp // optional trailing UNION/EXCEPT/INTERSECT
}

// SetOpKind distinguishes UNION, EXCEPT and INTERSECT.
type SetOpKind int

// Set operation kinds.
const (
	SetUnion SetOpKind = iota
	SetExcept
	SetIntersect
)

// SetOp chains a set operation onto a select.
type SetOp struct {
	Kind  SetOpKind
	All   bool
	Right *Select
}

// SelectItem is one projection: expr [AS alias], *, or table.*.
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	TableStar string // "t" for t.*
}

// NullsOrder is the explicit NULLS FIRST/LAST request on an ORDER BY key.
type NullsOrder int

// Nulls placements. Default follows the total order (NULLs first
// ascending, last descending).
const (
	NullsDefault NullsOrder = iota
	NullsFirst
	NullsLast
)

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr  Expr
	Desc  bool
	Nulls NullsOrder
}

// TableRef is a FROM-clause item.
type TableRef interface{ tableRefNode() }

// BaseTable references a named table, stream, view or derived stream,
// optionally with a window specification (streams only).
type BaseTable struct {
	Name   string
	Alias  string
	Window *WindowSpec
}

// Subquery is a parenthesized select in FROM.
type Subquery struct {
	Query *Select
	Alias string
}

// JoinType enumerates join variants.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	case JoinCross:
		return "CROSS"
	}
	return "?"
}

// Join is an explicit JOIN in FROM.
type Join struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr
}

func (*BaseTable) tableRefNode() {}
func (*Subquery) tableRefNode()  {}
func (*Join) tableRefNode()      {}

// WindowKind distinguishes the window clause forms.
type WindowKind int

// Window kinds.
const (
	// WindowTime: VISIBLE and ADVANCE are interval microseconds over the
	// stream's CQTIME attribute.
	WindowTime WindowKind = iota
	// WindowRows: VISIBLE and ADVANCE are row counts.
	WindowRows
	// WindowSlices: <SLICES n WINDOWS> — the last n window-emissions of a
	// derived stream; advances one emission at a time.
	WindowSlices
)

// WindowSpec is the parsed window clause attached to a stream reference.
// The paper's Example 2 uses <VISIBLE '5 minutes' ADVANCE '1 minute'>;
// Example 5 uses <SLICES 1 WINDOWS>.
type WindowSpec struct {
	Kind    WindowKind
	Visible int64 // micros (WindowTime) or rows (WindowRows) or windows (WindowSlices)
	Advance int64 // micros or rows; for WindowSlices fixed at 1 emission
}

func (w *WindowSpec) String() string { return Format(w) }

// ---------------------------------------------------------------- exprs

// Literal is a constant.
type Literal struct{ Val types.Datum }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct{ Table, Name string }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpConcat
)

// String is the operator as the printer spells it: its first spelling in
// the precedence table.
func (o BinOp) String() string {
	for _, b := range BinaryOps {
		if b.Op == o {
			return strings.ToUpper(b.Text)
		}
	}
	return "?"
}

// BinaryExpr is L op R.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNeg UnaryOp = iota
	OpNot
)

// UnaryExpr is op E.
type UnaryExpr struct {
	Op UnaryOp
	E  Expr
}

// FuncCall is name(args…); Star marks count(*)-style calls.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// CastExpr is E::type or CAST(E AS type).
type CastExpr struct {
	E  Expr
	To types.Type
}

// IsNullExpr is E IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Neg bool
}

// BetweenExpr is E [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Neg       bool
}

// InExpr is E [NOT] IN (list…).
type InExpr struct {
	E    Expr
	List []Expr
	Neg  bool
}

// LikeExpr is E [NOT] LIKE pattern.
type LikeExpr struct {
	E, Pattern Expr
	Neg        bool
}

// CaseWhen is one WHEN … THEN … arm.
type CaseWhen struct{ Cond, Result Expr }

// CaseExpr is CASE [operand] WHEN… [ELSE…] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

func (*Literal) exprNode()     {}
func (*ColumnRef) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*FuncCall) exprNode()    {}
func (*CastExpr) exprNode()    {}
func (*IsNullExpr) exprNode()  {}
func (*BetweenExpr) exprNode() {}
func (*InExpr) exprNode()      {}
func (*LikeExpr) exprNode()    {}
func (*CaseExpr) exprNode()    {}

func (e *Literal) String() string     { return Format(e) }
func (e *ColumnRef) String() string   { return Format(e) }
func (e *BinaryExpr) String() string  { return Format(e) }
func (e *UnaryExpr) String() string   { return Format(e) }
func (e *FuncCall) String() string    { return Format(e) }
func (e *CastExpr) String() string    { return Format(e) }
func (e *IsNullExpr) String() string  { return Format(e) }
func (e *BetweenExpr) String() string { return Format(e) }
func (e *InExpr) String() string      { return Format(e) }
func (e *LikeExpr) String() string    { return Format(e) }
func (e *CaseExpr) String() string    { return Format(e) }

// WalkExprs visits every expression in the tree rooted at e, depth-first.
// The visitor returns false to stop descending into a node's children.
func WalkExprs(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		WalkExprs(n.L, visit)
		WalkExprs(n.R, visit)
	case *UnaryExpr:
		WalkExprs(n.E, visit)
	case *FuncCall:
		for _, a := range n.Args {
			WalkExprs(a, visit)
		}
	case *CastExpr:
		WalkExprs(n.E, visit)
	case *IsNullExpr:
		WalkExprs(n.E, visit)
	case *BetweenExpr:
		WalkExprs(n.E, visit)
		WalkExprs(n.Lo, visit)
		WalkExprs(n.Hi, visit)
	case *InExpr:
		WalkExprs(n.E, visit)
		for _, a := range n.List {
			WalkExprs(a, visit)
		}
	case *LikeExpr:
		WalkExprs(n.E, visit)
		WalkExprs(n.Pattern, visit)
	case *CaseExpr:
		WalkExprs(n.Operand, visit)
		for _, w := range n.Whens {
			WalkExprs(w.Cond, visit)
			WalkExprs(w.Result, visit)
		}
		WalkExprs(n.Else, visit)
	}
}

// Rewrite returns a copy of e with every node for which repl returns a
// replacement substituted (top-down; replaced subtrees are not descended).
func Rewrite(e Expr, repl func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := repl(e); ok {
		return r
	}
	list := func(es []Expr) []Expr {
		out := make([]Expr, len(es))
		for i, a := range es {
			out[i] = Rewrite(a, repl)
		}
		return out
	}
	switch n := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, L: Rewrite(n.L, repl), R: Rewrite(n.R, repl)}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, E: Rewrite(n.E, repl)}
	case *FuncCall:
		return &FuncCall{Name: n.Name, Args: list(n.Args), Star: n.Star, Distinct: n.Distinct}
	case *CastExpr:
		return &CastExpr{E: Rewrite(n.E, repl), To: n.To}
	case *IsNullExpr:
		return &IsNullExpr{E: Rewrite(n.E, repl), Neg: n.Neg}
	case *BetweenExpr:
		return &BetweenExpr{E: Rewrite(n.E, repl), Lo: Rewrite(n.Lo, repl), Hi: Rewrite(n.Hi, repl), Neg: n.Neg}
	case *InExpr:
		return &InExpr{E: Rewrite(n.E, repl), List: list(n.List), Neg: n.Neg}
	case *LikeExpr:
		return &LikeExpr{E: Rewrite(n.E, repl), Pattern: Rewrite(n.Pattern, repl), Neg: n.Neg}
	case *CaseExpr:
		whens := make([]CaseWhen, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = CaseWhen{Cond: Rewrite(w.Cond, repl), Result: Rewrite(w.Result, repl)}
		}
		return &CaseExpr{Operand: Rewrite(n.Operand, repl), Whens: whens, Else: Rewrite(n.Else, repl)}
	}
	return e // *Literal, *ColumnRef, *Param
}
