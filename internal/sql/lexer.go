// Package sql implements the lexer, AST and parser for the TruSQL dialect
// described in the paper: standard SQL extended with streams, window
// clauses (<VISIBLE … ADVANCE …>, <SLICES n WINDOWS>), derived streams,
// streaming views and channels.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokString // 'quoted'
	TokNumber
	TokSymbol // punctuation and operators
	TokParam  // $1, $2, … positional parameter (Text holds the digits)
	tokBad    // the lexer failed here; Parser.err says how
)

// Token is one lexical token. For TokKeyword and TokIdent, Text is
// lower-cased unless the identifier was double-quoted.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

// isIdent reports whether the token can name something: an identifier, or
// one of the keywords the dialect does not reserve (a column named "key").
func (t Token) isIdent() bool {
	return t.Kind == TokIdent || t.Kind == TokKeyword && unreserved[t.Text]
}

var unreserved = map[string]bool{
	"user": true, "system": true, "key": true, "first": true, "last": true,
	"visible": true, "advance": true, "slices": true, "windows": true,
	"append": true, "replace": true, "show": true, "tables": true,
	"streams": true, "views": true, "channels": true,
}

// keywords is the keyword list. Words not in this set lex as identifiers;
// those also in unreserved are accepted wherever an identifier is.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "offset": true, "as": true,
	"and": true, "or": true, "not": true, "is": true, "null": true,
	"true": true, "false": true, "in": true, "like": true, "between": true,
	"case": true, "when": true, "then": true, "else": true, "end": true,
	"cast": true, "create": true, "table": true, "stream": true, "view": true,
	"channel": true, "index": true, "drop": true, "insert": true, "into": true,
	"values": true, "update": true, "set": true, "delete": true,
	"join": true, "inner": true, "left": true, "right": true, "full": true,
	"outer": true, "cross": true, "on": true, "using": true,
	"distinct": true, "all": true, "asc": true, "desc": true,
	"union": true, "except": true, "intersect": true,
	"visible": true, "advance": true, "slices": true, "windows": true,
	"rows": true, "cqtime": true, "user": true, "system": true,
	"append": true, "replace": true, "if": true, "exists": true,
	"interval": true, "timestamp": true, "show": true, "explain": true,
	"analyze": true,
	"tables":  true, "streams": true, "views": true, "channels": true,
	"begin": true, "commit": true, "rollback": true, "truncate": true,
	"nulls": true, "first": true, "last": true, "primary": true, "key": true,
	"partition": true,
}

// Lexer splits SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// Next returns the next token. At end of input it returns TokEOF forever.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexIdent(start), nil
	case c == '"':
		return l.lexQuoted(start, TokIdent, "quoted identifier")
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber(start)
	case c == '\'':
		return l.lexQuoted(start, TokString, "string literal")
	case c == '$':
		return l.lexParam(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) lexIdent(start int) Token {
	for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
		l.pos++
	}
	text := strings.ToLower(l.src[start:l.pos])
	kind := TokIdent
	if keywords[text] {
		kind = TokKeyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

// lexQuoted lexes a 'string' or a "quoted identifier"; the quote doubled
// stands for itself.
func (l *Lexer) lexQuoted(start int, kind TokenKind, what string) (Token, error) {
	quote := l.src[start]
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: kind, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated %s at offset %d", what, start)
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	sawDot, sawExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !sawExp && l.pos > start:
			sawExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if text == "." {
		return Token{}, fmt.Errorf("sql: invalid number at offset %d", start)
	}
	return Token{Kind: TokNumber, Text: text, Pos: start}, nil
}

func (l *Lexer) lexParam(start int) (Token, error) {
	l.pos++ // '$'
	digits := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == digits {
		return Token{}, fmt.Errorf("sql: expected digits after '$' at offset %d", start)
	}
	return Token{Kind: TokParam, Text: l.src[digits:l.pos], Pos: start}, nil
}

// twoCharSymbols are the multi-character operators, longest match first.
var twoCharSymbols = []string{"::", "<=", ">=", "<>", "!=", "||"}

func (l *Lexer) lexSymbol(start int) (Token, error) {
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(l.src[l.pos:], s) {
			l.pos += len(s)
			return Token{Kind: TokSymbol, Text: s, Pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ';', '*', '+', '-', '/', '%', '=', '<', '>', '.':
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	}
	r := rune(c)
	if r > unicode.MaxASCII {
		r = '?'
	}
	return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
}
