// Package lexer turns MiniHybrid source text into a token stream. The lexer
// is byte-oriented (MiniHybrid is ASCII-only by construction) with `//`
// line comments, and never stops at the first problem: illegal characters
// become Illegal tokens and are also recorded in the error list so the
// parser can keep producing diagnostics for the rest of the file.
package lexer

import (
	"parcoach/internal/source"
	"parcoach/internal/token"
)

// Lexer scans one file.
type Lexer struct {
	file *source.File
	src  string
	off  int
	errs source.ErrorList
}

// New returns a lexer over the given file.
func New(file *source.File) *Lexer {
	return &Lexer{file: file, src: file.Content}
}

// Errors returns the accumulated lexical errors.
func (l *Lexer) Errors() source.ErrorList { return l.errs }

// Scan returns all tokens of the file, ending with an EOF token. Comments
// are skipped.
func (l *Lexer) Scan() []token.Token {
	var toks []token.Token
	for {
		t := l.next()
		if t.Kind == token.Comment {
			continue
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) errorf(offset int, format string, args ...any) {
	l.errs.Add(l.file.Pos(offset), "lex", format, args...)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

// next scans a single token.
func (l *Lexer) next() token.Token {
	for l.off < len(l.src) && isSpace(l.src[l.off]) {
		l.off++
	}
	start := l.off
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Offset: start}
	}
	c := l.src[l.off]
	switch {
	case isLetter(c):
		for l.off < len(l.src) && (isLetter(l.src[l.off]) || isDigit(l.src[l.off])) {
			l.off++
		}
		lit := l.src[start:l.off]
		kind := token.Lookup(lit)
		if kind == token.Ident {
			return token.Token{Kind: token.Ident, Lit: lit, Offset: start}
		}
		return token.Token{Kind: kind, Lit: lit, Offset: start}
	case isDigit(c):
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
		// Reject "12ab" style runs as a single illegal token rather than
		// silently splitting into number + identifier.
		if l.off < len(l.src) && isLetter(l.src[l.off]) {
			for l.off < len(l.src) && (isLetter(l.src[l.off]) || isDigit(l.src[l.off])) {
				l.off++
			}
			lit := l.src[start:l.off]
			l.errorf(start, "malformed number %q", lit)
			return token.Token{Kind: token.Illegal, Lit: lit, Offset: start}
		}
		return token.Token{Kind: token.Int, Lit: l.src[start:l.off], Offset: start}
	}

	two := func(k token.Kind) token.Token {
		l.off += 2
		return token.Token{Kind: k, Offset: start}
	}
	one := func(k token.Kind) token.Token {
		l.off++
		return token.Token{Kind: k, Offset: start}
	}

	switch c {
	case '/':
		if l.peekAt(1) == '/' {
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
			return token.Token{Kind: token.Comment, Lit: l.src[start:l.off], Offset: start}
		}
		return one(token.Slash)
	case '=':
		if l.peekAt(1) == '=' {
			return two(token.Eq)
		}
		return one(token.Assign)
	case '!':
		if l.peekAt(1) == '=' {
			return two(token.NotEq)
		}
		return one(token.Not)
	case '<':
		if l.peekAt(1) == '=' {
			return two(token.LtEq)
		}
		return one(token.Lt)
	case '>':
		if l.peekAt(1) == '=' {
			return two(token.GtEq)
		}
		return one(token.Gt)
	case '&':
		if l.peekAt(1) == '&' {
			return two(token.AndAnd)
		}
		l.off++
		l.errorf(start, "unexpected character %q (did you mean &&?)", string(c))
		return token.Token{Kind: token.Illegal, Lit: string(c), Offset: start}
	case '|':
		if l.peekAt(1) == '|' {
			return two(token.OrOr)
		}
		l.off++
		l.errorf(start, "unexpected character %q (did you mean ||?)", string(c))
		return token.Token{Kind: token.Illegal, Lit: string(c), Offset: start}
	case '+':
		if l.peekAt(1) == '=' {
			return two(token.PlusEq)
		}
		return one(token.Plus)
	case '-':
		if l.peekAt(1) == '=' {
			return two(token.MinusEq)
		}
		return one(token.Minus)
	case '*':
		return one(token.Star)
	case '%':
		return one(token.Percent)
	case '(':
		return one(token.LParen)
	case ')':
		return one(token.RParen)
	case '{':
		return one(token.LBrace)
	case '}':
		return one(token.RBrace)
	case '[':
		return one(token.LBracket)
	case ']':
		return one(token.RBracket)
	case ',':
		return one(token.Comma)
	case ';':
		return one(token.Semi)
	case '.':
		if l.peekAt(1) == '.' {
			return two(token.DotDot)
		}
		l.off++
		l.errorf(start, "unexpected character %q", string(c))
		return token.Token{Kind: token.Illegal, Lit: string(c), Offset: start}
	}
	l.off++
	l.errorf(start, "unexpected character %q", string(c))
	return token.Token{Kind: token.Illegal, Lit: string(c), Offset: start}
}
