// Package sql implements the SQL subset the engine speaks: CREATE TABLE,
// INSERT, and SELECT with filtering, LIMIT, the PREDICT(model, column)
// inference function that nests model inference inside a query — the query
// surface the paper's applications (fraud scoring, recommendation) use —
// and DISTANCE(column, [v, ...]), which makes vector retrieval a SELECT.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer token types.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single punctuation: ( ) , ; [ ] *
	tokOp    // = != < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits a statement into tokens. Keywords are case-insensitive
// identifiers; callers compare with strings.EqualFold.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for {
		for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
			l.pos++
		}
		// Comments: `-- ...\n` and `/* ... */`. A `--` fused to an
		// identifier stays part of the identifier ('-' is an ident
		// character for model names), so comments need a token boundary
		// before them — which the whitespace skip above established.
		if l.pos+1 < len(l.src) && l.src[l.pos] == '-' && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos] == '/' && l.src[l.pos+1] == '*' {
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf(l.pos, "unterminated block comment")
			}
			l.pos += 2 + end + 2
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				// '' escapes a quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		return token{}, l.errf(start, "unterminated string literal")

	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil

	case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil

	case c == '(' || c == ')' || c == ',' || c == ';' || c == '[' || c == ']' || c == '*':
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil

	case c == '=':
		l.pos++
		return token{kind: tokOp, text: "=", pos: start}, nil

	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected '!'")

	case c == '<' || c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil

	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '-' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// lexAll tokenises the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
