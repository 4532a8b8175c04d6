package sql

import (
	"fmt"
	"strconv"
	"strings"

	"streamrel/internal/types"
)

// Parser is a recursive-descent parser over a pre-lexed token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
	// depth is how far below the statement the tree is being built right now
	// (deeper).
	depth int
}

// maxNesting bounds how deep a statement's tree may get. A level is whatever
// puts one node under another: a parenthesised expression, a function
// argument, a CASE branch, a NOT or a sign, a subquery — each a dozen parser
// frames — and equally one more operator in a chain (a AND b AND c …, JOINs,
// UNIONs), which the parser loops over but every later walk of the tree
// recurses into. SQL text arrives off the wire in frames of up to 64 MiB, and a
// Go stack that overflows cannot be recovered from: five million "(", or two
// million "+1", took the process down. The number is the one the wire decoder
// and encoding/json stop at — far above anything written or generated in
// earnest, far below what a stack holds.
const maxNesting = 10000

// deeper takes one level. A production that can contain itself, or that
// chains, defers p.restore(p.depth) and then calls deeper once per level it
// adds.
func (p *Parser) deeper() error {
	if p.depth >= maxNesting {
		return p.errf("statement nests deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

// restore gives back the levels a production took: deferred with the depth it
// started at.
func (p *Parser) restore(depth int) { p.depth = depth }

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	parsed, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]Statement, len(parsed))
	for i, p := range parsed {
		out[i] = p.Stmt
	}
	return out, nil
}

// ParsedStmt pairs a statement with its source text, so callers (the WAL)
// can log the exact SQL for replay.
type ParsedStmt struct {
	Stmt Statement
	Text string
}

// ParseScript parses a semicolon-separated script, retaining each
// statement's source text.
func ParseScript(src string) ([]ParsedStmt, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	var stmts []ParsedStmt
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().Kind == TokEOF {
			break
		}
		start := p.peek().Pos
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		end := len(src)
		if p.pos < len(p.toks) {
			end = p.toks[p.pos].Pos
		}
		stmts = append(stmts, ParsedStmt{Stmt: s, Text: strings.TrimSpace(src[start:end])})
		if !p.acceptSymbol(";") && p.peek().Kind != TokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	return stmts, nil
}

// ParseExpr parses a standalone scalar expression; used by tests and tools.
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected input after expression")
	}
	return e, nil
}

// --------------------------------------------------------------- helpers

func (p *Parser) peek() Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return Token{Kind: TokEOF, Pos: len(p.src)}
}

func (p *Parser) peekAt(n int) Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return Token{Kind: TokEOF, Pos: len(p.src)}
}

func (p *Parser) next() Token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.peek()
	loc := fmt.Sprintf(" near offset %d", t.Pos)
	if t.Kind != TokEOF {
		loc = fmt.Sprintf(" near %q (offset %d)", t.Text, t.Pos)
	}
	return fmt.Errorf("sql: "+format+loc, args...)
}

func (p *Parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *Parser) acceptSymbol(s string) bool {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == s {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

// parseIdent accepts an identifier, or a keyword usable as an identifier in
// this dialect (e.g. a column named "key").
func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	// Allow a few non-reserved keywords as identifiers.
	if t.Kind == TokKeyword {
		switch t.Text {
		case "user", "system", "key", "first", "last", "visible", "advance",
			"slices", "windows", "append", "replace", "show", "tables",
			"streams", "views", "channels":
			p.pos++
			return t.Text, nil
		}
	}
	return "", p.errf("expected identifier")
}

// parseRelName accepts a relation name: a bare identifier, or a
// dot-qualified pair like sys.metrics (folded into one "a.b" name — the
// catalog treats the qualified form as the full name; only the reserved
// sys namespace uses it today).
func (p *Parser) parseRelName() (string, error) {
	name, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	if p.peek().Kind == TokSymbol && p.peek().Text == "." {
		p.pos++
		rest, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		return name + "." + rest, nil
	}
	return name, nil
}

// --------------------------------------------------------------- stmts

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected a statement")
	}
	switch t.Text {
	case "select":
		return p.parseSelect()
	case "create":
		return p.parseCreate()
	case "drop":
		return p.parseDrop()
	case "insert":
		return p.parseInsert()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	case "truncate":
		p.pos++
		p.acceptKeyword("table")
		name, err := p.parseRelName()
		if err != nil {
			return nil, err
		}
		return &Truncate{Table: name}, nil
	case "show":
		p.pos++
		w := p.next()
		switch w.Text {
		case "tables", "streams", "views", "channels":
			return &Show{What: w.Text}, nil
		}
		return nil, p.errf("expected TABLES, STREAMS, VIEWS or CHANNELS")
	case "explain":
		p.pos++
		analyze := p.acceptKeyword("analyze")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	}
	return nil, p.errf("unsupported statement %q", t.Text)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.pos++ // create
	switch {
	case p.acceptKeyword("table"):
		return p.parseCreateTable()
	case p.acceptKeyword("stream"):
		return p.parseCreateStream()
	case p.acceptKeyword("view"):
		return p.parseCreateView()
	case p.acceptKeyword("channel"):
		return p.parseCreateChannel()
	case p.acceptKeyword("index"):
		return p.parseCreateIndex()
	}
	return nil, p.errf("expected TABLE, STREAM, VIEW, CHANNEL or INDEX after CREATE")
}

func (p *Parser) parseIfNotExists() (bool, error) {
	if p.acceptKeyword("if") {
		if err := p.expectKeyword("not"); err != nil {
			return false, err
		}
		if err := p.expectKeyword("exists"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseColumnDefs(false)
	if err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Columns: cols, IfNotExists: ine}, nil
}

func (p *Parser) parseCreateStream() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("as") {
		if err := p.expectKeyword("select"); err != nil {
			return nil, err
		}
		p.pos-- // parseSelect consumes SELECT itself
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateDerivedStream{Name: name, Query: q, IfNotExists: ine}, nil
	}
	cols, err := p.parseColumnDefs(true)
	if err != nil {
		return nil, err
	}
	var partBy string
	if p.acceptKeyword("partition") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		partBy, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
		found := false
		for _, c := range cols {
			if c.Name == partBy {
				if c.CQTime {
					return nil, p.errf("PARTITION BY column %q cannot be the CQTIME column", partBy)
				}
				found = true
			}
		}
		if !found {
			return nil, p.errf("PARTITION BY column %q is not a column of the stream", partBy)
		}
	}
	return &CreateStream{Name: name, Columns: cols, PartitionBy: partBy, IfNotExists: ine}, nil
}

func (p *Parser) parseColumnDefs(stream bool) ([]ColumnDef, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: name, Type: typ}
		if p.acceptKeyword("cqtime") {
			if !stream {
				return nil, p.errf("CQTIME is only valid on streams")
			}
			// "CQTIME USER": timestamps supplied in the data; "CQTIME
			// SYSTEM": assigned by the engine at arrival. USER is the
			// default.
			if !p.acceptKeyword("user") && p.acceptKeyword("system") {
				col.CQTimeSystem = true
			}
			col.CQTime = true
		}
		cols = append(cols, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return cols, nil
}

// parseTypeName maps SQL type spellings to types.Type. Length arguments
// like varchar(1024) parse and are ignored (all strings are unbounded).
func (p *Parser) parseTypeName() (types.Type, error) {
	t := p.next()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return types.TypeUnknown, p.errf("expected type name")
	}
	var typ types.Type
	switch t.Text {
	case "int", "integer", "bigint", "smallint", "int4", "int8":
		typ = types.TypeInt
	case "float", "double", "real", "numeric", "decimal", "float8":
		typ = types.TypeFloat
	case "varchar", "text", "char", "string":
		typ = types.TypeString
	case "bool", "boolean":
		typ = types.TypeBool
	case "timestamp", "timestamptz", "datetime":
		typ = types.TypeTimestamp
	case "interval":
		typ = types.TypeInterval
	default:
		return types.TypeUnknown, fmt.Errorf("sql: unknown type %q (offset %d)", t.Text, t.Pos)
	}
	// Optional precision/length arguments.
	if p.acceptSymbol("(") {
		for {
			n := p.next()
			if n.Kind != TokNumber {
				return types.TypeUnknown, p.errf("expected number in type modifier")
			}
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return types.TypeUnknown, err
		}
	}
	// "double precision"
	if t.Text == "double" {
		p.acceptKeyword("precision")
		if pk := p.peek(); pk.Kind == TokIdent && pk.Text == "precision" {
			p.pos++
		}
	}
	return typ, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Query: q, IfNotExists: ine}, nil
}

func (p *Parser) parseCreateChannel() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	into, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	mode := ChannelAppend
	switch {
	case p.acceptKeyword("append"):
	case p.acceptKeyword("replace"):
		mode = ChannelReplace
	}
	return &CreateChannel{Name: name, From: from, Into: into, Mode: mode, IfNotExists: ine}, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	ine, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, IfNotExists: ine}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.pos++ // drop
	var kind ObjectKind
	switch {
	case p.acceptKeyword("table"):
		kind = ObjTable
	case p.acceptKeyword("stream"):
		kind = ObjStream
	case p.acceptKeyword("view"):
		kind = ObjView
	case p.acceptKeyword("channel"):
		kind = ObjChannel
	case p.acceptKeyword("index"):
		kind = ObjIndex
	default:
		return nil, p.errf("expected object kind after DROP")
	}
	ifExists := false
	if p.acceptKeyword("if") {
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	return &Drop{Kind: kind, Name: name, IfExists: ifExists}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.pos++ // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptSymbol("(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("values") {
		var rows [][]Expr
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if !p.acceptSymbol(",") {
				break
			}
		}
		return &Insert{Table: table, Columns: cols, Rows: rows}, nil
	}
	if p.peekKeyword("select") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Insert{Table: table, Columns: cols, Query: q}, nil
	}
	return nil, p.errf("expected VALUES or SELECT")
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.pos++ // update
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	var assigns []Assignment
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	var where Expr
	if p.acceptKeyword("where") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &Update{Table: table, Set: assigns, Where: where}, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.pos++ // delete
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.acceptKeyword("where") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &Delete{Table: table, Where: where}, nil
}

// --------------------------------------------------------------- select

func (p *Parser) parseSelect() (*Select, error) {
	defer p.restore(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &Select{}
	if p.acceptKeyword("distinct") {
		s.Distinct = true
	} else {
		p.acceptKeyword("all")
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("from") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	var err error
	if p.acceptKeyword("where") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	// Set operations bind before ORDER BY/LIMIT of the overall query.
	for {
		var kind SetOpKind
		switch {
		case p.acceptKeyword("union"):
			kind = SetUnion
		case p.acceptKeyword("except"):
			kind = SetExcept
		case p.acceptKeyword("intersect"):
			kind = SetIntersect
		default:
			goto setDone
		}
		all := p.acceptKeyword("all")
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		// Chain onto the deepest select.
		leaf := s
		for leaf.SetOp != nil {
			leaf = leaf.SetOp.Right
		}
		leaf.SetOp = &SetOp{Kind: kind, All: all, Right: right}
	}
setDone:
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			if p.acceptKeyword("nulls") {
				switch {
				case p.acceptKeyword("first"):
					item.Nulls = NullsFirst
				case p.acceptKeyword("last"):
					item.Nulls = NullsLast
				default:
					return nil, p.errf("expected FIRST or LAST")
				}
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		if s.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("offset") {
		if s.Offset, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseSelectCore parses the right side of a set operation: a SELECT block
// without trailing ORDER BY / LIMIT (those belong to the whole chain).
func (p *Parser) parseSelectCore() (*Select, error) {
	if p.acceptSymbol("(") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &Select{}
	if p.acceptKeyword("distinct") {
		s.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("from") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	var err error
	if p.acceptKeyword("where") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		if s.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.peek().Kind == TokIdent && p.peekAt(1).Kind == TokSymbol && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == TokSymbol && p.peekAt(2).Text == "*" {
		t := p.next()
		p.next()
		p.next()
		return SelectItem{TableStar: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseTableRef parses one FROM item including trailing JOIN chains.
func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for {
		var jt JoinType
		switch {
		case p.acceptKeyword("join"):
			jt = JoinInner
		case p.acceptKeyword("inner"):
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinInner
		case p.acceptKeyword("left"):
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinLeft
		case p.acceptKeyword("right"):
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinRight
		case p.acceptKeyword("full"):
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinFull
		case p.acceptKeyword("cross"):
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = JoinCross
		default:
			return left, nil
		}
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &Join{Type: jt, Left: left, Right: right}
		if jt != JoinCross {
			if err := p.expectKeyword("on"); err != nil {
				return nil, err
			}
			if j.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		left = j
	}
}

func (p *Parser) parseTablePrimary() (TableRef, error) {
	if p.acceptSymbol("(") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		sub := &Subquery{Query: q}
		if p.acceptKeyword("as") {
			a, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			sub.Alias = a
		} else if p.peek().Kind == TokIdent {
			sub.Alias = p.next().Text
		}
		return sub, nil
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	// Window clause: '<' VISIBLE … | SLICES … '>' — only valid right here,
	// where a comparison operator cannot occur.
	if p.peek().Kind == TokSymbol && p.peek().Text == "<" {
		w, err := p.parseWindowSpec()
		if err != nil {
			return nil, err
		}
		bt.Window = w
	}
	if p.acceptKeyword("as") {
		a, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.peek().Kind == TokIdent {
		bt.Alias = p.next().Text
	}
	// Window may also follow the alias (both orders appear in practice).
	if bt.Window == nil && p.peek().Kind == TokSymbol && p.peek().Text == "<" {
		w, err := p.parseWindowSpec()
		if err != nil {
			return nil, err
		}
		bt.Window = w
	}
	return bt, nil
}

// parseWindowSpec parses the paper's window clause:
//
//	<VISIBLE '5 minutes' ADVANCE '1 minute'>
//	<VISIBLE 100 ROWS ADVANCE 10 ROWS>
//	<SLICES 1 WINDOWS>
//
// VISIBLE without ADVANCE (or vice versa) means a tumbling window.
func (p *Parser) parseWindowSpec() (*WindowSpec, error) {
	if err := p.expectSymbol("<"); err != nil {
		return nil, err
	}
	w := &WindowSpec{}
	if p.acceptKeyword("slices") {
		n := p.next()
		if n.Kind != TokNumber {
			return nil, p.errf("expected window count after SLICES")
		}
		cnt, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil || cnt <= 0 {
			return nil, p.errf("invalid SLICES count %q", n.Text)
		}
		if err := p.expectKeyword("windows"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(">"); err != nil {
			return nil, err
		}
		return &WindowSpec{Kind: WindowSlices, Visible: cnt, Advance: 1}, nil
	}
	var haveVisible, haveAdvance bool
	var rowBased, timeBased bool
	for {
		switch {
		case p.acceptKeyword("visible"):
			v, isRows, err := p.parseWindowExtent()
			if err != nil {
				return nil, err
			}
			w.Visible, haveVisible = v, true
			rowBased = rowBased || isRows
			timeBased = timeBased || !isRows
		case p.acceptKeyword("advance"):
			v, isRows, err := p.parseWindowExtent()
			if err != nil {
				return nil, err
			}
			w.Advance, haveAdvance = v, true
			rowBased = rowBased || isRows
			timeBased = timeBased || !isRows
		default:
			goto finish
		}
	}
finish:
	if err := p.expectSymbol(">"); err != nil {
		return nil, err
	}
	if !haveVisible && !haveAdvance {
		return nil, p.errf("window clause needs VISIBLE and/or ADVANCE")
	}
	if rowBased && timeBased {
		return nil, p.errf("window clause mixes time and row extents")
	}
	if rowBased {
		w.Kind = WindowRows
	} else {
		w.Kind = WindowTime
	}
	if !haveVisible {
		w.Visible = w.Advance // tumbling
	}
	if !haveAdvance {
		w.Advance = w.Visible // tumbling
	}
	if w.Visible <= 0 || w.Advance <= 0 {
		return nil, p.errf("window extents must be positive")
	}
	return w, nil
}

// parseWindowExtent parses either an interval string literal ('5 minutes')
// or "<n> ROWS". It returns the magnitude and whether it was row-based.
func (p *Parser) parseWindowExtent() (int64, bool, error) {
	t := p.peek()
	switch t.Kind {
	case TokString:
		p.pos++
		d, err := types.ParseInterval(t.Text)
		if err != nil {
			return 0, false, fmt.Errorf("sql: window extent: %w", err)
		}
		return d.IntervalMicros(), false, nil
	case TokNumber:
		p.pos++
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return 0, false, p.errf("invalid row count %q", t.Text)
		}
		if err := p.expectKeyword("rows"); err != nil {
			return 0, false, err
		}
		return n, true, nil
	}
	return 0, false, p.errf("expected interval literal or row count")
}

// --------------------------------------------------------------- exprs

// parseExpr parses with standard SQL precedence:
// OR < AND < NOT < comparison/IS/LIKE/BETWEEN/IN < add < mul < unary < cast.
func (p *Parser) parseExpr() (Expr, error) {
	defer p.restore(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for p.acceptKeyword("or") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for p.acceptKeyword("and") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		defer p.restore(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, E: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for {
		t := p.peek()
		if t.Kind == TokSymbol {
			if op, ok := cmpOps[t.Text]; ok {
				p.pos++
				if err := p.deeper(); err != nil {
					return nil, err
				}
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BinaryExpr{Op: op, L: l, R: r}
				continue
			}
		}
		if p.acceptKeyword("is") {
			if err := p.deeper(); err != nil {
				return nil, err
			}
			neg := p.acceptKeyword("not")
			if err := p.expectKeyword("null"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{E: l, Neg: neg}
			continue
		}
		neg := false
		save := p.pos
		if p.acceptKeyword("not") {
			neg = true
		}
		switch {
		case p.acceptKeyword("between"):
			if err := p.deeper(); err != nil {
				return nil, err
			}
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{E: l, Lo: lo, Hi: hi, Neg: neg}
			continue
		case p.acceptKeyword("in"):
			if err := p.deeper(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			l = &InExpr{E: l, List: list, Neg: neg}
			continue
		case p.acceptKeyword("like"):
			if err := p.deeper(); err != nil {
				return nil, err
			}
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{E: l, Pattern: pat, Neg: neg}
			continue
		}
		if neg {
			p.pos = save // the NOT belongs to an outer context
		}
		return l, nil
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return l, nil
		}
		var op BinOp
		switch t.Text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return l, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for {
		t := p.peek()
		if t.Kind != TokSymbol {
			return l, nil
		}
		var op BinOp
		switch t.Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return l, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		defer p.restore(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNeg, E: e}, nil
	}
	p.acceptSymbol("+")
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	defer p.restore(p.depth)
	for p.acceptSymbol("::") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		e = &CastExpr{E: e, To: typ}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.Text)
		}
		return &Literal{Val: types.NewInt(n)}, nil
	case TokString:
		p.pos++
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokParam:
		p.pos++
		idx, err := strconv.Atoi(t.Text)
		if err != nil || idx < 1 {
			return nil, p.errf("invalid parameter $%s", t.Text)
		}
		return &Param{Index: idx}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokKeyword:
		switch t.Text {
		case "null":
			p.pos++
			return &Literal{Val: types.Null}, nil
		case "true":
			p.pos++
			return &Literal{Val: types.True}, nil
		case "false":
			p.pos++
			return &Literal{Val: types.False}, nil
		case "interval":
			p.pos++
			lit := p.next()
			if lit.Kind != TokString {
				return nil, p.errf("expected string after INTERVAL")
			}
			d, err := types.ParseInterval(lit.Text)
			if err != nil {
				return nil, err
			}
			return &Literal{Val: d}, nil
		case "timestamp":
			p.pos++
			lit := p.next()
			if lit.Kind != TokString {
				return nil, p.errf("expected string after TIMESTAMP")
			}
			d, err := types.ParseTimestamp(lit.Text)
			if err != nil {
				return nil, err
			}
			return &Literal{Val: d}, nil
		case "cast":
			p.pos++
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("as"); err != nil {
				return nil, err
			}
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &CastExpr{E: e, To: typ}, nil
		case "case":
			return p.parseCase()
		}
	}
	// Identifier: column ref or function call. Also a few keywords usable
	// as identifiers (user, key, …).
	name, err := p.parseIdent()
	if err != nil {
		return nil, p.errf("expected expression")
	}
	if p.acceptSymbol("(") {
		fc := &FuncCall{Name: name}
		if p.acceptSymbol("*") {
			fc.Star = true
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if !p.acceptSymbol(")") {
			if p.acceptKeyword("distinct") {
				fc.Distinct = true
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.acceptSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		return fc, nil
	}
	if p.acceptSymbol(".") {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.pos++ // case
	c := &CaseExpr{}
	if !p.peekKeyword("when") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}
