package sql

// The TruSQL grammar, as the parser below reads it. UPPER CASE is a keyword
// (any case in the text), 'x' a symbol, STR a 'string', NUM a number, and ID
// an identifier: bare (folded to lower case), "quoted" (kept as written) or an
// unreserved keyword (lexer.go). x? is optional, x* any number, a | b either.
// [n] marks what takes nesting levels (maxNesting).
//
// ### statements -------------------------------------------------------------
//
// script  := (stmt? ';')* stmt?
// stmt    := select | create | drop | insert | update | delete
//          | TRUNCATE TABLE? rel
//          | SHOW (TABLES | STREAMS | VIEWS | CHANNELS)
//          | EXPLAIN ANALYZE? stmt                                  [1]
// create  := CREATE TABLE ine? rel coldefs
//          | CREATE STREAM ine? rel coldefs (PARTITION BY ID)?
//          | CREATE STREAM ine? rel AS select       -- derived: an always-on CQ
//          | CREATE VIEW ine? rel AS select
//          | CREATE CHANNEL ine? rel FROM rel INTO rel (APPEND | REPLACE)?
//          | CREATE INDEX ine? rel ON rel '(' ID (',' ID)* ')'
// ine     := IF NOT EXISTS
// coldefs := '(' coldef (',' coldef)* ')'
// coldef  := ID type (CQTIME (USER | SYSTEM)?)?     -- CQTIME: streams only
// type    := ID ('(' NUM (',' NUM)* ')')?           -- bigint, varchar(64), …;
//                                                   -- DOUBLE PRECISION
// drop    := DROP (TABLE | STREAM | VIEW | CHANNEL | INDEX) (IF EXISTS)? rel
// insert  := INSERT INTO rel ('(' ID (',' ID)* ')')? (VALUES row (',' row)* | select)
// row     := '(' exprs ')'
// update  := UPDATE rel SET ID '=' expr (',' ID '=' expr)* (WHERE expr)?
// delete  := DELETE FROM rel (WHERE expr)?
// rel     := ID ('.' ID)?                           -- sys.metrics: one name
//
// ### select -----------------------------------------------------------------
//
// select  := block (setop (block | '(' select ')'))*                [1, +1 per setop]
//            (ORDER BY order (',' order)*)? (LIMIT expr)? (OFFSET expr)?
// setop   := (UNION | EXCEPT | INTERSECT) ALL?
// block   := SELECT (DISTINCT | ALL)? item (',' item)* (FROM ref (',' ref)*)?
//            (WHERE expr)? (GROUP BY exprs)? (HAVING expr)?
// item    := '*' | ID '.' '*' | expr alias?
// alias   := AS ID | ID                             -- without AS: no keyword
// order   := expr (ASC | DESC)? (NULLS (FIRST | LAST))?
// ref     := source (join source (ON expr)?)*                       [+1 per join]
// join    := INNER? JOIN | (LEFT | RIGHT | FULL) OUTER? JOIN | CROSS JOIN
// source  := '(' select ')' alias? | rel window? alias? window?
// window  := '<' (VISIBLE extent | ADVANCE extent)* '>'  -- one of the two alone: tumbling
//          | '<' SLICES NUM WINDOWS '>'                  -- of a derived stream
// extent  := STR | NUM ROWS                              -- '5 minutes'; one kind per window
//
// ### expressions ------------------------------------------------------------
//
// exprs   := expr (',' expr)*
// expr    := binary(OR)                                             [1]
//
// The binary operators are the table BinaryOps, loosest level first, each
// level left-associative over the next:                            [+1 per operator]
//
//	OR · AND · comparison · + - || · * / %
//
// with the comparison level spelled out, NOT above it:
//
// not     := NOT not | cmp                                          [+1 per NOT]
// cmp     := binary(+) ( cmpop binary(+) | IS NOT? NULL             [+1 per turn]
//          | NOT? BETWEEN binary(+) AND binary(+) | NOT? LIKE binary(+)
//          | NOT? IN '(' exprs ')' )*
// unary   := '-' unary | '+'? postfix         -- '-' NUM is one literal   [+1 per '-']
// postfix := primary ('::' type)*                                   [+1 per cast]
// primary := NUM | STR | '$' NUM | NULL | TRUE | FALSE | INTERVAL STR | TIMESTAMP STR
//          | '(' binary(OR) ')'                                     [a parenthesis]
//          | CAST '(' expr AS type ')'
//          | CASE expr? (WHEN expr THEN expr)* (ELSE expr)? END
//          | ID '(' ('*' | DISTINCT? exprs)? ')' | ID ('.' ID)?
//
// ----------------------------------------------------------------------------

import (
	"fmt"
	"strconv"
	"strings"

	"streamrel/internal/types"
)

// Parser is a recursive-descent parser that pulls its tokens from a Lexer as
// it needs them, never holding more than the one it looks at and two behind
// it: a statement that fails at its third token costs three tokens, whatever
// the length of the frame it came in.
type Parser struct {
	lex     Lexer
	toks    [3]Token // a ring: toks[head] is the token looked at
	head, n int
	// err is the lexer's error once it has one; the token there, and every
	// one after it, is tokBad, and errf reports err when the parser gets that
	// far — so errors come in text order, a syntax error before a lexical
	// one further on.
	err error
	// depth is how far below the statement the node being parsed sits; high
	// is the deepest any node has sat since a chain last asked (see chain);
	// parens is how many parentheses of the expression kind are open.
	depth, high, parens int
	// params says what a $n parses to (keepParams, bindParams, typeParams),
	// args are the arguments it binds or takes its type from, and top is the
	// highest n read.
	params, top int
	args        []types.Datum
}

// maxNesting bounds how deep a statement's tree may get, and (separately, as
// they put no node in it) how many parentheses may be open around an
// expression. A level is whatever puts one node under another: a function
// argument, a CASE branch, a NOT or a sign, a subquery, and equally one more
// operator in a chain (a AND b AND c …, JOINs, UNIONs), which the parser
// loops over but every later walk of the tree recurses into. SQL text arrives
// off the wire in frames of up to 64 MiB, and a Go stack that overflows
// cannot be recovered from: five million "(", or two million "+1", took the
// process down. The number is the one the wire decoder and encoding/json stop
// at — far above anything written or generated in earnest, far below what a
// stack holds. The count is of the tree, not of its spelling, so what Format
// prints of an accepted statement is accepted.
const maxNesting = 10000

func (p *Parser) tooDeep() error {
	return p.errf("statement nests deeper than %d levels", maxNesting)
}

// deeper takes one level. A production that contains itself defers
// p.restore(p.depth) and then calls deeper.
func (p *Parser) deeper() error {
	if p.depth >= maxNesting {
		return p.tooDeep()
	}
	p.depth++
	p.high = max(p.high, p.depth)
	return nil
}

// restore gives back the levels a production took: deferred with the depth it
// started at.
func (p *Parser) restore(depth int) { p.depth = depth }

// A chain is a production that parses an operand and then, once per turn of a
// loop, puts what it has so far under one more node: a AND b AND c, x::t::t,
// JOINs, UNIONs. Nothing recurses, but the tree under the chain is as deep as
// its deepest operand plus the turns taken since, which top tracks.
type chain struct {
	p                *Parser
	base, outer, top int
}

// chain starts one: deferred end, then grow once per turn.
func (p *Parser) chain() chain {
	c := chain{p: p, base: p.depth, outer: p.high, top: p.depth}
	p.high = p.depth
	return c
}

// grow puts one more node over everything parsed since the chain began.
func (c *chain) grow() error {
	c.top = max(c.top, c.p.high) + 1
	c.p.high = c.base
	if c.top > maxNesting {
		return c.p.tooDeep()
	}
	return nil
}

// end lets the enclosing chain, if any, see how deep this one got.
func (c *chain) end() { c.p.high = max(c.outer, c.top, c.p.high) }

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed). Its $n are parameters of unknown type.
func Parse(src string) (Statement, error) { return (&Parser{lex: Lexer{src: src}}).one() }

// one parses exactly one statement.
func (p *Parser) one() (Statement, error) {
	stmts, err := p.script()
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0].Stmt, nil
}

// ParsedStmt pairs a statement with its source text, so callers (the WAL)
// can log the exact SQL for replay.
type ParsedStmt struct {
	Stmt Statement
	Text string
}

// ParseScript parses a semicolon-separated script, retaining each
// statement's source text.
func ParseScript(src string) ([]ParsedStmt, error) { return (&Parser{lex: Lexer{src: src}}).script() }

// script parses statements to the end of the input.
func (p *Parser) script() ([]ParsedStmt, error) {
	src := p.lex.src
	var stmts []ParsedStmt
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().Kind == TokEOF {
			return stmts, nil
		}
		start := p.peek().Pos
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, ParsedStmt{Stmt: s, Text: strings.TrimSpace(src[start:p.peek().Pos])})
		if !p.acceptSymbol(";") && p.peek().Kind != TokEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
}

// --------------------------------------------------------------- helpers

func (p *Parser) peek() Token { return p.peekAt(0) }

// peekAt looks n tokens ahead, n at most 2.
func (p *Parser) peekAt(n int) Token {
	for ; p.n <= n; p.n++ {
		var t Token
		if p.err == nil {
			t, p.err = p.lex.Next()
		}
		if p.err != nil {
			t = Token{Kind: tokBad, Pos: p.lex.pos}
		}
		p.toks[(p.head+p.n)%len(p.toks)] = t
	}
	return p.toks[(p.head+n)%len(p.toks)]
}

func (p *Parser) next() Token {
	t := p.peek()
	p.head = (p.head + 1) % len(p.toks)
	p.n--
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.peek()
	switch t.Kind {
	case tokBad:
		return p.err
	case TokEOF:
		return fmt.Errorf("sql: "+format+" near offset %d", append(args, t.Pos)...)
	}
	return fmt.Errorf("sql: "+format+" near %q (offset %d)", append(args, t.Text, t.Pos)...)
}

func (t Token) isKeyword(kw string) bool { return t.Kind == TokKeyword && t.Text == kw }
func (t Token) isSymbol(s string) bool   { return t.Kind == TokSymbol && t.Text == s }

func (p *Parser) peekKeyword(kw string) bool { return p.peek().isKeyword(kw) }

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
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
	if p.peek().isSymbol(s) {
		p.next()
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

// parseIdent accepts an identifier, or a keyword usable as one in this
// dialect (e.g. a column named "key").
func (p *Parser) parseIdent() (string, error) {
	if t := p.peek(); t.isIdent() {
		p.next()
		return t.Text, nil
	}
	return "", p.errf("expected identifier")
}

// parseAlias accepts AS name, or a bare identifier (no keyword, reserved or
// not), or nothing.
func (p *Parser) parseAlias() (string, error) {
	if p.acceptKeyword("as") {
		return p.parseIdent()
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text, nil
	}
	return "", nil
}

// parseRelName accepts a relation name: a bare identifier, or a
// dot-qualified pair like sys.metrics (folded into one "a.b" name — the
// catalog treats the qualified form as the full name; only the reserved
// sys namespace uses it today).
func (p *Parser) parseRelName() (string, error) {
	name, err := p.parseIdent()
	if err != nil || !p.acceptSymbol(".") {
		return name, err
	}
	rest, err := p.parseIdent()
	return name + "." + rest, err
}

// commaList parses item, and again after every comma.
func (p *Parser) commaList(item func() error) error {
	for {
		if err := item(); err != nil || !p.acceptSymbol(",") {
			return err
		}
	}
}

func (p *Parser) parseExprList() (es []Expr, err error) {
	err = p.commaList(func() error {
		e, err := p.parseExpr()
		es = append(es, e)
		return err
	})
	return es, err
}

// parseIdentList parses '(' ID (',' ID)* ')'.
func (p *Parser) parseIdentList() (ids []string, err error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	err = p.commaList(func() error {
		id, err := p.parseIdent()
		ids = append(ids, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ids, p.expectSymbol(")")
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
		p.next()
		p.acceptKeyword("table")
		name, err := p.parseRelName()
		if err != nil {
			return nil, err
		}
		return &Truncate{Table: name}, nil
	case "show":
		p.next()
		if w := p.next(); w.Kind == TokKeyword {
			switch w.Text {
			case "tables", "streams", "views", "channels":
				return &Show{What: w.Text}, nil
			}
		}
		return nil, p.errf("expected TABLES, STREAMS, VIEWS or CHANNELS")
	case "explain":
		defer p.restore(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		p.next()
		analyze := p.acceptKeyword("analyze")
		// An explained statement's $n stay parameters: EXPLAIN shows the
		// plan a call with arguments would run.
		params, top := p.params, p.top
		p.params, p.top = keepParams, 0
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		ex := &Explain{Stmt: inner, Analyze: analyze, Params: p.top}
		p.params, p.top = params, top
		return ex, nil
	}
	return nil, p.errf("unsupported statement %q", t.Text)
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // create
	kind := p.peek()
	if _, ok := objectKinds[kind.Text]; !ok || kind.Kind != TokKeyword {
		return nil, p.errf("expected TABLE, STREAM, VIEW, CHANNEL or INDEX after CREATE")
	}
	p.next()
	var ine bool
	if p.acceptKeyword("if") {
		if err := p.expectKeyword("not"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		ine = true
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	switch kind.Text {
	case "table":
		cols, err := p.parseColumnDefs(false)
		if err != nil {
			return nil, err
		}
		return &CreateTable{Name: name, Columns: cols, IfNotExists: ine}, nil
	case "stream":
		return p.parseCreateStream(name, ine)
	case "view":
		if err := p.expectKeyword("as"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, Query: q, IfNotExists: ine}, nil
	case "channel":
		return p.parseCreateChannel(name, ine)
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, IfNotExists: ine}, nil
}

func (p *Parser) parseCreateStream(name string, ine bool) (Statement, error) {
	if p.acceptKeyword("as") {
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
	err := p.commaList(func() error {
		name, err := p.parseIdent()
		if err != nil {
			return err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return err
		}
		col := ColumnDef{Name: name, Type: typ}
		if p.acceptKeyword("cqtime") {
			if !stream {
				return p.errf("CQTIME is only valid on streams")
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
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, p.expectSymbol(")")
}

// typeNames maps SQL type spellings to types.Type.
var typeNames = map[string]types.Type{
	"int": types.TypeInt, "integer": types.TypeInt, "bigint": types.TypeInt,
	"smallint": types.TypeInt, "int4": types.TypeInt, "int8": types.TypeInt,
	"float": types.TypeFloat, "double": types.TypeFloat, "real": types.TypeFloat,
	"numeric": types.TypeFloat, "decimal": types.TypeFloat, "float8": types.TypeFloat,
	"varchar": types.TypeString, "text": types.TypeString, "char": types.TypeString,
	"string": types.TypeString, "bool": types.TypeBool, "boolean": types.TypeBool,
	"timestamp": types.TypeTimestamp, "timestamptz": types.TypeTimestamp,
	"datetime": types.TypeTimestamp, "interval": types.TypeInterval,
}

// parseTypeName parses a type. Length arguments like varchar(1024) parse and
// are ignored (all strings are unbounded).
func (p *Parser) parseTypeName() (types.Type, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return types.TypeUnknown, p.errf("expected type name")
	}
	p.next()
	typ, ok := typeNames[t.Text]
	if !ok {
		return types.TypeUnknown, fmt.Errorf("sql: unknown type %q (offset %d)", t.Text, t.Pos)
	}
	if p.acceptSymbol("(") {
		err := p.commaList(func() error {
			if p.peek().Kind != TokNumber {
				return p.errf("expected number in type modifier")
			}
			p.next()
			return nil
		})
		if err != nil {
			return types.TypeUnknown, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return types.TypeUnknown, err
		}
	}
	// "double precision"
	if pk := p.peek(); t.Text == "double" && pk.Kind == TokIdent && pk.Text == "precision" {
		p.next()
	}
	return typ, nil
}

func (p *Parser) parseCreateChannel(name string, ine bool) (Statement, error) {
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
	if !p.acceptKeyword("append") && p.acceptKeyword("replace") {
		mode = ChannelReplace
	}
	return &CreateChannel{Name: name, From: from, Into: into, Mode: mode, IfNotExists: ine}, nil
}

var objectKinds = map[string]ObjectKind{
	"table": ObjTable, "stream": ObjStream, "view": ObjView, "channel": ObjChannel, "index": ObjIndex,
}

func (p *Parser) parseDrop() (Statement, error) {
	p.next() // drop
	kind, ok := objectKinds[p.peek().Text]
	if !ok || p.peek().Kind != TokKeyword {
		return nil, p.errf("expected object kind after DROP")
	}
	p.next()
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
	p.next() // insert
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.peek().isSymbol("(") {
		if ins.Columns, err = p.parseIdentList(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKeyword("values"):
		err = p.commaList(func() error {
			if err := p.expectSymbol("("); err != nil {
				return err
			}
			row, err := p.parseExprList()
			if err != nil {
				return err
			}
			ins.Rows = append(ins.Rows, row)
			return p.expectSymbol(")")
		})
	case p.peekKeyword("select"):
		ins.Query, err = p.parseSelect()
	default:
		err = p.errf("expected VALUES or SELECT")
	}
	if err != nil {
		return nil, err
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // update
	table, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	err = p.commaList(func() error {
		col, err := p.parseIdent()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		val, err := p.parseExpr()
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		return err
	})
	if err == nil && p.acceptKeyword("where") {
		up.Where, err = p.parseExpr()
	}
	if err != nil {
		return nil, err
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // delete
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

var setOpKinds = map[string]SetOpKind{"union": SetUnion, "except": SetExcept, "intersect": SetIntersect}

func (p *Parser) parseSelect() (*Select, error) {
	defer p.restore(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	c := p.chain()
	defer c.end()
	s, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	// Set operations bind before ORDER BY/LIMIT of the overall query, and
	// chain onto the deepest select.
	for leaf := s; ; {
		kind, ok := setOpKinds[p.peek().Text]
		if !ok || p.peek().Kind != TokKeyword {
			break
		}
		p.next()
		op := &SetOp{Kind: kind, All: p.acceptKeyword("all")}
		// The right side is a block without ORDER BY/LIMIT (those belong to
		// the whole chain) unless it brings its own parentheses.
		if p.acceptSymbol("(") {
			if op.Right, err = p.parseSelect(); err == nil {
				err = p.expectSymbol(")")
			}
			// The chain is kept flat, so a chain in parentheses stands in it
			// as one block, SELECT * FROM (the chain): its operators bind
			// and its ORDER BY/LIMIT apply inside.
			if err == nil && op.Right.SetOp != nil {
				op.Right = &Select{Items: []SelectItem{{Star: true}}, From: []TableRef{&Subquery{Query: op.Right}}}
			}
		} else {
			op.Right, err = p.parseBlock()
		}
		if err == nil {
			err = c.grow()
		}
		if err != nil {
			return nil, err
		}
		for leaf.SetOp != nil {
			leaf = leaf.SetOp.Right
		}
		leaf.SetOp = op
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		err := p.commaList(func() error {
			e, err := p.parseExpr()
			if err != nil {
				return err
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
					return p.errf("expected FIRST or LAST")
				}
			}
			s.OrderBy = append(s.OrderBy, item)
			return nil
		})
		if err != nil {
			return nil, err
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

// parseBlock parses SELECT … [FROM …] [WHERE …] [GROUP BY …] [HAVING …].
func (p *Parser) parseBlock() (*Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &Select{}
	if p.acceptKeyword("distinct") {
		s.Distinct = true
	} else {
		p.acceptKeyword("all")
	}
	err := p.commaList(func() error {
		item, err := p.parseSelectItem()
		s.Items = append(s.Items, item)
		return err
	})
	if err == nil && p.acceptKeyword("from") {
		err = p.commaList(func() error {
			ref, err := p.parseTableRef()
			s.From = append(s.From, ref)
			return err
		})
	}
	if err == nil && p.acceptKeyword("where") {
		s.Where, err = p.parseExpr()
	}
	if err == nil && p.acceptKeyword("group") {
		if err = p.expectKeyword("by"); err == nil {
			s.GroupBy, err = p.parseExprList()
		}
	}
	if err == nil && p.acceptKeyword("having") {
		s.Having, err = p.parseExpr()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	if t := p.peek(); t.isIdent() && p.peekAt(1).isSymbol(".") && p.peekAt(2).isSymbol("*") {
		p.next()
		p.next()
		p.next()
		return SelectItem{TableStar: t.Text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.parseAlias()
	return SelectItem{Expr: e, Alias: alias}, err
}

var joinTypes = map[string]JoinType{
	"join": JoinInner, "inner": JoinInner, "left": JoinLeft, "right": JoinRight, "full": JoinFull, "cross": JoinCross,
}

// parseTableRef parses one FROM item including trailing JOIN chains.
func (p *Parser) parseTableRef() (TableRef, error) {
	c := p.chain()
	defer c.end()
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		jt, ok := joinTypes[t.Text]
		if !ok || t.Kind != TokKeyword {
			return left, nil
		}
		p.next()
		if t.Text != "join" {
			if jt == JoinLeft || jt == JoinRight || jt == JoinFull {
				p.acceptKeyword("outer")
			}
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
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
		if err := c.grow(); err != nil {
			return nil, err
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
		alias, err := p.parseAlias()
		return &Subquery{Query: q, Alias: alias}, err
	}
	name, err := p.parseRelName()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	// Window clause: '<' VISIBLE … | SLICES … '>' — only valid right here,
	// where a comparison operator cannot occur, or after the alias (both
	// orders appear in practice).
	window := func() (err error) {
		if bt.Window == nil && p.peek().isSymbol("<") {
			bt.Window, err = p.parseWindowSpec()
		}
		return err
	}
	if err := window(); err != nil {
		return nil, err
	}
	if bt.Alias, err = p.parseAlias(); err != nil {
		return nil, err
	}
	return bt, window()
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
	w := &WindowSpec{Kind: WindowTime}
	var rowBased, timeBased bool
	for {
		extent := &w.Visible
		if !p.acceptKeyword("visible") {
			if !p.acceptKeyword("advance") {
				break
			}
			extent = &w.Advance
		}
		v, isRows, err := p.parseWindowExtent()
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, p.errf("window extents must be positive")
		}
		*extent = v
		rowBased = rowBased || isRows
		timeBased = timeBased || !isRows
	}
	if err := p.expectSymbol(">"); err != nil {
		return nil, err
	}
	switch {
	case !rowBased && !timeBased:
		return nil, p.errf("window clause needs VISIBLE and/or ADVANCE")
	case rowBased && timeBased:
		return nil, p.errf("window clause mixes time and row extents")
	case rowBased:
		w.Kind = WindowRows
	}
	if w.Visible == 0 {
		w.Visible = w.Advance // tumbling
	}
	if w.Advance == 0 {
		w.Advance = w.Visible // tumbling
	}
	return w, nil
}

// parseWindowExtent parses either an interval string literal ('5 minutes')
// or "<n> ROWS". It returns the magnitude and whether it was row-based.
func (p *Parser) parseWindowExtent() (int64, bool, error) {
	t := p.peek()
	switch t.Kind {
	case TokString:
		p.next()
		d, err := types.ParseInterval(t.Text)
		if err != nil {
			return 0, false, fmt.Errorf("sql: window extent: %w", err)
		}
		return d.IntervalMicros(), false, nil
	case TokNumber:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return 0, false, p.errf("invalid row count %q", t.Text)
		}
		return n, true, p.expectKeyword("rows")
	}
	return 0, false, p.errf("expected interval literal or row count")
}

// --------------------------------------------------------------- exprs

// The levels of BinaryOps, loosest first. The comparison level also holds
// NOT, IS NULL, BETWEEN, IN and LIKE.
const (
	PrecOr = iota
	PrecAnd
	PrecCmp
	PrecAdd
	PrecMul
)

// BinaryOps is the precedence table: every binary operator, the level it
// binds at, and the token that spells it. An operator's first row is the
// spelling Format prints. The parser's one operator loop and the statement
// generator that fuzzes it (sqlgen) both read it.
var BinaryOps = []struct {
	Prec int
	Kind TokenKind
	Text string
	Op   BinOp
}{
	{PrecOr, TokKeyword, "or", OpOr},
	{PrecAnd, TokKeyword, "and", OpAnd},
	{PrecCmp, TokSymbol, "=", OpEq},
	{PrecCmp, TokSymbol, "<>", OpNe},
	{PrecCmp, TokSymbol, "!=", OpNe},
	{PrecCmp, TokSymbol, "<", OpLt},
	{PrecCmp, TokSymbol, "<=", OpLe},
	{PrecCmp, TokSymbol, ">", OpGt},
	{PrecCmp, TokSymbol, ">=", OpGe},
	{PrecAdd, TokSymbol, "+", OpAdd},
	{PrecAdd, TokSymbol, "-", OpSub},
	{PrecAdd, TokSymbol, "||", OpConcat},
	{PrecMul, TokSymbol, "*", OpMul},
	{PrecMul, TokSymbol, "/", OpDiv},
	{PrecMul, TokSymbol, "%", OpMod},
}

// binaryOp looks t up among the operators of one level.
func binaryOp(prec int, t Token) (BinOp, bool) {
	for _, b := range BinaryOps {
		if b.Prec == prec && b.Kind == t.Kind && b.Text == t.Text {
			return b.Op, true
		}
	}
	return 0, false
}

// parseExpr parses with standard SQL precedence:
// OR < AND < NOT < comparison/IS/LIKE/BETWEEN/IN < add < mul < unary < cast.
func (p *Parser) parseExpr() (Expr, error) {
	defer p.restore(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	return p.parseBinary(PrecOr)
}

// parseBinary parses the operators of one level over operands of the next.
func (p *Parser) parseBinary(prec int) (Expr, error) {
	switch {
	case prec == PrecCmp:
		return p.parseNot()
	case prec > PrecMul:
		return p.parseUnary()
	}
	c := p.chain()
	defer c.end()
	l, err := p.parseBinary(prec + 1)
	for err == nil {
		op, ok := binaryOp(prec, p.peek())
		if !ok {
			return l, nil
		}
		p.next()
		var r Expr
		if r, err = p.parseBinary(prec + 1); err == nil {
			err = c.grow()
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return nil, err
}

func (p *Parser) parseNot() (Expr, error) {
	if !p.acceptKeyword("not") {
		return p.parseComparison()
	}
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

func (p *Parser) parseComparison() (Expr, error) {
	c := p.chain()
	defer c.end()
	l, err := p.parseBinary(PrecAdd)
	for err == nil {
		t := p.peek()
		neg := t.isKeyword("not") // of NOT BETWEEN | IN | LIKE; any other NOT belongs to an outer context
		if neg {
			t = p.peekAt(1)
		}
		op, isOp := binaryOp(PrecCmp, t)
		if negatable := t.isKeyword("between") || t.isKeyword("in") || t.isKeyword("like"); !negatable && (neg || !isOp && !t.isKeyword("is")) {
			return l, nil
		}
		if neg {
			p.next()
		}
		p.next()
		var r, hi Expr
		switch {
		case isOp:
			r, err = p.parseBinary(PrecAdd)
			l = &BinaryExpr{Op: op, L: l, R: r}
		case t.isKeyword("is"):
			not := p.acceptKeyword("not")
			err = p.expectKeyword("null")
			l = &IsNullExpr{E: l, Neg: not}
		case t.isKeyword("between"):
			if r, err = p.parseBinary(PrecAdd); err == nil {
				if err = p.expectKeyword("and"); err == nil {
					hi, err = p.parseBinary(PrecAdd)
				}
			}
			l = &BetweenExpr{E: l, Lo: r, Hi: hi, Neg: neg}
		case t.isKeyword("in"):
			var list []Expr
			if err = p.expectSymbol("("); err == nil {
				if list, err = p.parseExprList(); err == nil {
					err = p.expectSymbol(")")
				}
			}
			l = &InExpr{E: l, List: list, Neg: neg}
		default: // LIKE
			r, err = p.parseBinary(PrecAdd)
			l = &LikeExpr{E: l, Pattern: r, Neg: neg}
		}
		if err == nil {
			err = c.grow()
		}
	}
	return nil, err
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		// A sign on a number is part of the literal — the most negative
		// integer has no other spelling — unless a cast, which binds
		// tighter than the sign, follows the number.
		if p.peek().Kind == TokNumber && !p.peekAt(1).isSymbol("::") {
			return p.parseNumber("-")
		}
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
	c := p.chain()
	defer c.end()
	e, err := p.parsePrimary()
	for err == nil && p.acceptSymbol("::") {
		var typ types.Type
		if typ, err = p.parseTypeName(); err == nil {
			err = c.grow()
		}
		e = &CastExpr{E: e, To: typ}
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// parseNumber parses the number token at hand, with the sign already read.
func (p *Parser) parseNumber(sign string) (Expr, error) {
	text := sign + p.next().Text
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", text)
		}
		return &Literal{Val: types.NewFloat(f)}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, p.errf("invalid number %q", text)
	}
	return &Literal{Val: types.NewInt(n)}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		return p.parseNumber("")
	case TokString:
		p.next()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokParam:
		p.next()
		idx, err := strconv.Atoi(t.Text)
		if err != nil || idx < 1 {
			return nil, p.errf("invalid parameter $%s", t.Text)
		}
		return p.param(idx)
	case TokSymbol:
		if t.Text == "(" {
			if p.parens >= maxNesting-1 {
				return nil, p.tooDeep()
			}
			p.next()
			p.parens++
			e, err := p.parseBinary(PrecOr)
			p.parens--
			if err != nil {
				return nil, err
			}
			return e, p.expectSymbol(")")
		}
	case TokKeyword:
		switch t.Text {
		case "null":
			p.next()
			return &Literal{Val: types.Null}, nil
		case "true":
			p.next()
			return &Literal{Val: types.True}, nil
		case "false":
			p.next()
			return &Literal{Val: types.False}, nil
		case "interval", "timestamp":
			p.next()
			lit := p.next()
			if lit.Kind != TokString {
				return nil, p.errf("expected string after %s", strings.ToUpper(t.Text))
			}
			d, err := types.ParseLiteral(lit.Text, typeNames[t.Text])
			if err != nil {
				return nil, fmt.Errorf("sql: %w (offset %d)", err, lit.Pos)
			}
			return &Literal{Val: d}, nil
		case "cast":
			p.next()
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
			return &CastExpr{E: e, To: typ}, p.expectSymbol(")")
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
		switch {
		case p.acceptSymbol("*"):
			fc.Star = true
		case !p.peek().isSymbol(")"):
			fc.Distinct = p.acceptKeyword("distinct")
			if fc.Args, err = p.parseExprList(); err != nil {
				return nil, err
			}
		}
		return fc, p.expectSymbol(")")
	}
	if p.acceptSymbol(".") {
		col, err := p.parseIdent()
		return &ColumnRef{Table: name, Name: col}, err
	}
	return &ColumnRef{Name: name}, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // case
	c := &CaseExpr{}
	var err error
	if !p.peekKeyword("when") {
		if c.Operand, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	for p.acceptKeyword("when") {
		var w CaseWhen
		if w.Cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		if w.Result, err = p.parseExpr(); err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, w)
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("else") {
		if c.Else, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return c, p.expectKeyword("end")
}
