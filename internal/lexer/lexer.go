package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// punctuation lexemes ordered longest-first so maximal munch works.
var puncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "..", "->",
	"{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "?",
	"+", "-", "*", "/", "%", "<", ">", "=", "&", "|", "^", "~", "!", "#", "@",
}

// punctsByFirst holds the lexemes of puncts that start with each byte,
// still longest-first.
var punctsByFirst [256][]string

func init() {
	for _, pt := range puncts {
		punctsByFirst[pt[0]] = append(punctsByFirst[pt[0]], pt)
	}
}

// Lexer scans LISA source text.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
	errs []error
}

// New creates a Lexer for src; file is used in positions and diagnostics.
func New(src, file string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns diagnostics accumulated during scanning.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			n := strings.IndexByte(l.src[l.off:], '\n')
			if n < 0 {
				n = len(l.src) - l.off
			}
			l.off, l.col = l.off+n, l.col+n
		case c == '/' && l.peekAt(1) == '*':
			p := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token. At end of input it returns an EOF token
// (repeatedly, if called again).
func (l *Lexer) Next() Token {
	for {
		l.skipSpaceAndComments()
		p := l.pos()
		if l.off >= len(l.src) {
			return Token{Kind: EOF, Pos: p}
		}
		c := l.peek()

		switch {
		case isIdentStart(c):
			start := l.off
			for l.off < len(l.src) && isIdentPart(l.src[l.off]) {
				l.off++
			}
			l.col += l.off - start
			return Token{Kind: IDENT, Text: l.src[start:l.off], Pos: p}

		case isDigit(c):
			return l.scanNumber(p)

		case c == '"':
			return l.scanString(p)

		case c == '\'':
			return l.scanChar(p)
		}

		// punctuation, maximal munch
		rest := l.src[l.off:]
		for _, pt := range punctsByFirst[c] {
			if strings.HasPrefix(rest, pt) {
				l.off += len(pt)
				l.col += len(pt)
				return Token{Kind: PUNCT, Text: pt, Pos: p}
			}
		}

		l.errorf(p, "unexpected character %q", string(c))
		l.advance()
	}
}

// scanNumber handles decimal, hex (0x), and binary coding patterns (0b with
// digits 0, 1 and don't-care x). A 0b pattern containing only 0/1 is still a
// BINPAT: in LISA, 0b literals are coding patterns, not arithmetic values.
func (l *Lexer) scanNumber(p Pos) Token {
	start := l.off
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		// Could be hex number 0x1f — but "0x" followed by non-hex is the
		// 1-digit don't-care binary pattern "0bx" misspelling; LISA uses 0b
		// for patterns, so 0x here is always hex.
		l.advance()
		l.advance()
		digStart := l.off
		for l.off < len(l.src) && (isHexDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
		text := l.src[start:l.off]
		digits := strings.ReplaceAll(l.src[digStart:l.off], "_", "")
		if digits == "" {
			l.errorf(p, "malformed hex literal %q", text)
			return Token{Kind: NUMBER, Text: text, Val: 0, Pos: p}
		}
		v, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			l.errorf(p, "hex literal %q out of range", text)
		}
		return Token{Kind: NUMBER, Text: text, Val: v, Pos: p}
	}
	if l.peek() == '0' && l.peekAt(1) == 'b' {
		l.advance()
		l.advance()
		digStart := l.off
		for l.off < len(l.src) {
			c := l.peek()
			if c == '0' || c == '1' || c == 'x' || c == 'X' {
				l.advance()
			} else {
				break
			}
		}
		digits := l.src[digStart:l.off]
		if digits == "" {
			l.errorf(p, "malformed binary pattern")
		}
		return Token{Kind: BINPAT, Text: strings.ToLower(digits), Pos: p}
	}
	for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	text := l.src[start:l.off]
	v, err := strconv.ParseUint(strings.ReplaceAll(text, "_", ""), 10, 64)
	if err != nil {
		l.errorf(p, "decimal literal %q out of range", text)
	}
	return Token{Kind: NUMBER, Text: text, Val: v, Pos: p}
}

func (l *Lexer) scanString(p Pos) Token {
	l.advance() // opening quote
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.peek()
		if c == '"' {
			l.advance()
			return Token{Kind: STRING, Text: sb.String(), Pos: p}
		}
		if c == '\n' {
			break
		}
		if c == '\\' {
			l.advance()
			if l.off >= len(l.src) {
				break
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			case '0':
				sb.WriteByte(0)
			default:
				l.errorf(p, "unknown escape \\%c", e)
				sb.WriteByte(e)
			}
			continue
		}
		sb.WriteByte(l.advance())
	}
	l.errorf(p, "unterminated string literal")
	return Token{Kind: STRING, Text: sb.String(), Pos: p}
}

// scanChar lexes a character constant as a NUMBER token ('A' == 65).
func (l *Lexer) scanChar(p Pos) Token {
	l.advance()
	if l.off >= len(l.src) {
		l.errorf(p, "unterminated character constant")
		return Token{Kind: NUMBER, Text: "''", Pos: p}
	}
	var v uint64
	c := l.advance()
	if c == '\\' && l.off < len(l.src) {
		e := l.advance()
		switch e {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '0':
			v = 0
		default:
			v = uint64(e)
		}
	} else {
		v = uint64(c)
	}
	if l.off < len(l.src) && l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(p, "unterminated character constant")
	}
	return Token{Kind: NUMBER, Text: fmt.Sprintf("'%c'", rune(v)), Val: v, Pos: p}
}
