package sql

import (
	"fmt"

	"streamrel/internal/types"
)

// Param is a positional query parameter ($1, $2, …): argument Index of the
// execution, read when the statement runs. Type is that argument's type when
// the statement was parsed with its arguments (ParseGeneric), and
// TypeUnknown when it was not (Parse, and an EXPLAINed statement).
type Param struct {
	Index int
	Type  types.Type
}

func (*Param) exprNode() {}

// String renders the placeholder.
func (p *Param) String() string { return Format(p) }

// What a $n parses to (Parser.params).
const (
	keepParams = iota // a *Param of unknown type (Parse)
	bindParams        // its argument, as a *Literal (ParseArgs)
	typeParams        // a *Param of its argument's type (ParseGeneric)
)

// ParseArgs parses one statement with each $n bound to args[n-1] as a
// literal. Continuous queries, DML and DDL are bound once this way: a CQ's
// plan keys and a view's stored query hold values, not slots. Only a SELECT,
// INSERT, UPDATE or DELETE takes arguments; the $n of an EXPLAINed statement
// stay parameters.
func ParseArgs(src string, args []types.Datum) (Statement, error) {
	return parseArgs(src, args, bindParams)
}

// ParseGeneric parses one statement with each $n a *Param of args[n-1]'s
// type: the form one plan serves for every call with arguments of those
// types, reading them at each execution.
func ParseGeneric(src string, args []types.Datum) (Statement, error) {
	return parseArgs(src, args, typeParams)
}

// parseArgs parses src and checks args against it: every $n has an
// argument, and every argument a $n.
func parseArgs(src string, args []types.Datum, params int) (Statement, error) {
	p := &Parser{lex: Lexer{src: src}, args: args, params: params}
	stmt, err := p.one()
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		if len(args) > 0 {
			return nil, fmt.Errorf("sql: this statement kind does not take parameters")
		}
	}
	if p.top < len(args) {
		return nil, fmt.Errorf("sql: %d arguments supplied but only $%d used", len(args), p.top)
	}
	return stmt, nil
}

// param is what $n parses to under p.params.
func (p *Parser) param(n int) (Expr, error) {
	p.top = max(p.top, n)
	switch {
	case p.params == keepParams:
		return &Param{Index: n}, nil
	case n > len(p.args):
		return nil, fmt.Errorf("sql: parameter $%d out of range (%d arguments)", n, len(p.args))
	case p.params == bindParams:
		return &Literal{Val: p.args[n-1]}, nil
	}
	return &Param{Index: n, Type: p.args[n-1].Type()}, nil
}
