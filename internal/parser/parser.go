// Package parser implements the recursive-descent parser for LISA
// descriptions, covering resource/pipeline declarations, operations with all
// predefined sections, compile-time conditional operation structuring, and
// the embedded C-subset behavior language.
package parser

import (
	"fmt"
	"math"
	"strings"

	"golisa/internal/ast"
	"golisa/internal/lexer"
)

// Parser pulls tokens from the lexer on demand: the grammar never looks
// more than one token past the current one.
type Parser struct {
	lex    *lexer.Lexer
	tok    lexer.Token // the current token
	ahead  lexer.Token // the token after tok, once peek has read it
	peeked bool
	errs   []error
}

type bailout struct{}

// Parse parses a complete LISA description from src. It returns the AST and
// all diagnostics, lexical before syntactic; the AST is usable only when
// the error slice is empty.
func Parse(src, file string) (*ast.Description, []error) {
	l := lexer.New(src, file)
	p := &Parser{lex: l, tok: l.Next()}
	d := p.parseDescription()
	return d, append(l.Errors(), p.errs...)
}

func (p *Parser) cur() lexer.Token { return p.tok }

// peek returns the token after the current one.
func (p *Parser) peek() lexer.Token {
	if !p.peeked {
		p.ahead, p.peeked = p.lex.Next(), true
	}
	return p.ahead
}

func (p *Parser) next() lexer.Token {
	t := p.tok
	switch {
	case t.Kind == lexer.EOF:
	case p.peeked:
		p.tok, p.peeked = p.ahead, false
	default:
		p.tok = p.lex.Next()
	}
	return t
}

func (p *Parser) errorf(t lexer.Token, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", t.Pos, fmt.Sprintf(format, args...)))
}

// fail records an error and unwinds to the nearest recovery point.
func (p *Parser) fail(t lexer.Token, format string, args ...any) {
	p.errorf(t, format, args...)
	panic(bailout{})
}

func (p *Parser) expectPunct(s string) lexer.Token {
	t := p.cur()
	if !t.Is(s) {
		p.fail(t, "expected '%s', found %s", s, t)
	}
	return p.next()
}

func (p *Parser) expectIdent() lexer.Token {
	t := p.cur()
	if t.Kind != lexer.IDENT {
		p.fail(t, "expected identifier, found %s", t)
	}
	return p.next()
}

func (p *Parser) expectNumber() lexer.Token {
	t := p.cur()
	if t.Kind == lexer.BINPAT && !strings.ContainsRune(t.Text, 'x') {
		// A fully-specified binary pattern is usable as a number.
		var v uint64
		for _, c := range t.Text {
			v = v<<1 | uint64(c-'0')
		}
		p.next()
		return lexer.Token{Kind: lexer.NUMBER, Text: "0b" + t.Text, Val: v, Pos: t.Pos}
	}
	if t.Kind != lexer.NUMBER {
		p.fail(t, "expected number, found %s", t)
	}
	return p.next()
}

// maxElems bounds the elements of one memory, banks included, so that a
// description cannot make the simulator's state ask for more than a few
// hundred megabytes.
const maxElems = 1 << 24

// bounded returns n's value when it lies in [lo,hi]. Otherwise it reports
// the number as written and returns hi.
func (p *Parser) bounded(n lexer.Token, what string, lo, hi uint64) int {
	if n.Val < lo || n.Val > hi {
		p.errorf(n, "%s %s out of range [%d,%d]", what, n.Text, lo, hi)
		return int(hi)
	}
	return int(n.Val)
}

func (p *Parser) acceptPunct(s string) bool {
	if p.cur().Is(s) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptIdent(name string) bool {
	if p.cur().IsIdent(name) {
		p.next()
		return true
	}
	return false
}

// skipToTopLevel advances past tokens until the next RESOURCE/OPERATION
// keyword or EOF, balancing braces so keyword-lookalikes inside bodies do not
// stop the resync early.
func (p *Parser) skipToTopLevel() {
	depth := 0
	for {
		t := p.cur()
		switch {
		case t.Kind == lexer.EOF:
			return
		case t.Is("{"):
			depth++
		case t.Is("}"):
			if depth > 0 {
				depth--
			}
		case depth == 0 && (t.IsIdent("RESOURCE") || t.IsIdent("OPERATION")):
			return
		}
		p.next()
	}
}

func (p *Parser) parseDescription() *ast.Description {
	d := &ast.Description{}
	for p.cur().Kind != lexer.EOF {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(bailout); !ok {
						panic(r)
					}
					p.skipToTopLevel()
				}
			}()
			t := p.cur()
			switch {
			case t.IsIdent("RESOURCE"):
				p.parseResourceSection(d)
			case t.IsIdent("OPERATION"):
				d.Operations = append(d.Operations, p.parseOperation())
			default:
				p.fail(t, "expected RESOURCE or OPERATION at top level, found %s", t)
			}
		}()
		if p.cur().Kind == lexer.EOF {
			break
		}
	}
	return d
}

// --- RESOURCE section -------------------------------------------------------

var resourceClasses = map[string]ast.ResourceClass{
	"REGISTER":         ast.ClassRegister,
	"CONTROL_REGISTER": ast.ClassControlRegister,
	"PROGRAM_COUNTER":  ast.ClassProgramCounter,
	"DATA_MEMORY":      ast.ClassDataMemory,
	"PROGRAM_MEMORY":   ast.ClassProgramMemory,
}

func (p *Parser) parseResourceSection(d *ast.Description) {
	p.expectIdent() // RESOURCE
	p.expectPunct("{")
	for !p.cur().Is("}") {
		if p.cur().Kind == lexer.EOF {
			p.fail(p.cur(), "unterminated RESOURCE section")
		}
		if p.cur().IsIdent("PIPELINE") {
			d.Pipelines = append(d.Pipelines, p.parsePipelineDecl())
			continue
		}
		d.Resources = append(d.Resources, p.parseResourceDecl())
	}
	p.next() // }
}

func (p *Parser) parsePipelineDecl() *ast.PipelineDecl {
	start := p.expectIdent() // PIPELINE
	name := p.expectIdent()
	p.expectPunct("=")
	p.expectPunct("{")
	pd := &ast.PipelineDecl{Pos: start.Pos, Name: name.Text}
	for !p.cur().Is("}") {
		st := p.expectIdent()
		pd.Stages = append(pd.Stages, st.Text)
		if !p.acceptPunct(";") && !p.acceptPunct(",") {
			break
		}
	}
	p.expectPunct("}")
	p.acceptPunct(";")
	if len(pd.Stages) == 0 {
		p.errorf(start, "pipeline %s has no stages", pd.Name)
	}
	return pd
}

// parseType parses a behavior/resource type: int, long, unsigned [int],
// bool, bit, bit[N].
func (p *Parser) parseType() (ast.TypeSpec, bool) {
	t := p.cur()
	if t.Kind != lexer.IDENT {
		return ast.TypeSpec{}, false
	}
	switch t.Text {
	case "int":
		p.next()
		return ast.TypeSpec{Kind: ast.TypeInt, Width: 32}, true
	case "long":
		p.next()
		return ast.TypeSpec{Kind: ast.TypeLong, Width: 64}, true
	case "unsigned":
		p.next()
		p.acceptIdent("int")
		return ast.TypeSpec{Kind: ast.TypeUint, Width: 32}, true
	case "bool":
		p.next()
		return ast.TypeSpec{Kind: ast.TypeBit, Width: 1}, true
	case "bit":
		p.next()
		width := 1
		if p.acceptPunct("[") {
			n := p.expectNumber()
			p.expectPunct("]")
			width = p.bounded(n, "bit width", 1, 64)
		}
		return ast.TypeSpec{Kind: ast.TypeBit, Width: width}, true
	}
	return ast.TypeSpec{}, false
}

func (p *Parser) parseResourceDecl() *ast.ResourceDecl {
	start := p.cur()
	r := &ast.ResourceDecl{Pos: start.Pos, Class: ast.ClassNone}
	if cls, ok := resourceClasses[start.Text]; ok && start.Kind == lexer.IDENT {
		r.Class = cls
		p.next()
	}
	ty, ok := p.parseType()
	if !ok {
		p.fail(p.cur(), "expected type in resource declaration, found %s", p.cur())
	}
	r.Type = ty
	r.Name = p.expectIdent().Text

	// Extent: [N], [lo..hi], or banked [B]([N]) — paper Example 1 shows
	// data_mem2[4]([0x20000]). A memory holds 1 to maxElems elements, banks
	// included.
	if p.acceptPunct("[") {
		lo := p.expectNumber()
		ranged := p.acceptPunct("..")
		if ranged {
			hi := p.expectNumber()
			r.HasRange = true
			r.RangeLo, r.RangeHi = lo.Val, hi.Val
			if hi.Val < lo.Val {
				p.errorf(hi, "memory range upper bound %#x below lower bound %#x", hi.Val, lo.Val)
			} else if hi.Val-lo.Val >= maxElems {
				p.errorf(lo, "memory range %s..%s out of range [1,%d] elements", lo.Text, hi.Text, maxElems)
			}
		}
		p.expectPunct("]")
		switch {
		case p.acceptPunct("("):
			p.expectPunct("[")
			n := p.expectNumber()
			p.expectPunct("]")
			p.expectPunct(")")
			nerrs := len(p.errs)
			r.Banks = p.bounded(lo, "bank count", 0, math.MaxInt)
			r.Size = uint64(p.bounded(n, "memory size", 1, maxElems))
			if len(p.errs) == nerrs && (r.Banks == 0 || uint64(r.Banks) > maxElems/r.Size) {
				p.errorf(lo, "memory of %s banks of %s elements out of range [1,%d] elements", lo.Text, n.Text, maxElems)
			}
		case !ranged:
			r.Size = uint64(p.bounded(lo, "memory size", 1, maxElems))
		}
	}

	for {
		switch {
		case p.acceptIdent("WAIT"):
			r.Wait = p.bounded(p.expectNumber(), "WAIT", 0, math.MaxInt)
		case p.acceptIdent("LATCH"):
			r.Latch = true
		case p.acceptIdent("ALIAS"):
			r.IsAlias = true
			r.AliasOf = p.expectIdent().Text
			p.expectPunct("[")
			hi := p.expectNumber()
			p.expectPunct("..")
			lo := p.expectNumber()
			p.expectPunct("]")
			r.AliasHi, r.AliasLo = p.bounded(hi, "alias bit", 0, 63), p.bounded(lo, "alias bit", 0, 63)
			if r.AliasHi < r.AliasLo {
				r.AliasHi, r.AliasLo = r.AliasLo, r.AliasHi
			}
		default:
			p.expectPunct(";")
			return r
		}
	}
}

// --- OPERATION --------------------------------------------------------------

func (p *Parser) parseOperation() *ast.Operation {
	start := p.expectIdent() // OPERATION
	name := p.expectIdent()
	op := &ast.Operation{Pos: start.Pos, Name: name.Text}
	for {
		switch {
		case p.acceptIdent("ALIAS"):
			op.Alias = true
		case p.acceptIdent("IN"):
			pipe := p.expectIdent()
			p.expectPunct(".")
			stage := p.expectIdent()
			op.Pipe, op.Stage = pipe.Text, stage.Text
		default:
			goto body
		}
	}
body:
	p.expectPunct("{")
	op.Sections = p.parseSections()
	p.expectPunct("}")
	return op
}

// parseSections parses sections until the closing '}' of the surrounding
// block (not consumed).
func (p *Parser) parseSections() []ast.Section {
	var secs []ast.Section
	for !p.cur().Is("}") {
		if p.cur().Kind == lexer.EOF {
			p.fail(p.cur(), "unterminated operation body")
		}
		secs = append(secs, p.parseSection())
	}
	return secs
}

func (p *Parser) parseSection() ast.Section {
	t := p.cur()
	if t.Kind != lexer.IDENT {
		p.fail(t, "expected section name, found %s", t)
	}
	switch t.Text {
	case "DECLARE":
		return p.parseDeclareSec()
	case "CODING":
		return p.parseCodingSec()
	case "SYNTAX":
		return p.parseSyntaxSec()
	case "SEMANTICS":
		return p.parseRawSec("SEMANTICS")
	case "BEHAVIOR":
		p.next()
		pos := p.cur().Pos
		body := p.parseBlock()
		return &ast.BehaviorSec{Pos: pos, Body: body}
	case "EXPRESSION":
		return p.parseExpressionSec()
	case "ACTIVATION":
		return p.parseActivationSec()
	case "SWITCH":
		return p.parseSwitchSec()
	case "IF":
		return p.parseIfSec()
	default:
		// User-defined section (e.g. POWER): raw capture.
		if p.peek().Is("{") {
			sec := p.parseRawSec(t.Text)
			return sec
		}
		p.fail(t, "unknown section %q", t.Text)
		return nil
	}
}

func (p *Parser) parseDeclareSec() *ast.DeclareSec {
	start := p.expectIdent() // DECLARE
	p.expectPunct("{")
	ds := &ast.DeclareSec{Pos: start.Pos}
	for !p.cur().Is("}") {
		t := p.cur()
		switch {
		case t.IsIdent("GROUP"):
			p.next()
			g := &ast.GroupDecl{Pos: t.Pos}
			g.Names = append(g.Names, p.expectIdent().Text)
			for p.acceptPunct(",") {
				g.Names = append(g.Names, p.expectIdent().Text)
			}
			p.expectPunct("=")
			p.expectPunct("{")
			for !p.cur().Is("}") {
				g.Members = append(g.Members, p.expectIdent().Text)
				p.acceptPunct(",")
				p.acceptPunct(";")
			}
			p.next() // }
			p.acceptPunct(";")
			if len(g.Members) == 0 {
				p.errorf(t, "group %s has no members", strings.Join(g.Names, ","))
			}
			ds.Groups = append(ds.Groups, g)
		case t.IsIdent("LABEL"):
			p.next()
			ds.Labels = append(ds.Labels, p.expectIdent().Text)
			for p.acceptPunct(",") {
				ds.Labels = append(ds.Labels, p.expectIdent().Text)
			}
			p.acceptPunct(";")
		case t.IsIdent("REFERENCE"):
			p.next()
			ds.Refs = append(ds.Refs, p.expectIdent().Text)
			for p.acceptPunct(",") {
				ds.Refs = append(ds.Refs, p.expectIdent().Text)
			}
			p.acceptPunct(";")
		case t.IsIdent("INSTANCE"):
			p.next()
			ds.Enums = append(ds.Enums, p.expectIdent().Text)
			for p.acceptPunct(",") {
				ds.Enums = append(ds.Enums, p.expectIdent().Text)
			}
			p.acceptPunct(";")
		default:
			p.fail(t, "expected GROUP, LABEL, REFERENCE or INSTANCE in DECLARE, found %s", t)
		}
	}
	p.next() // }
	return ds
}

func (p *Parser) parseCodingSec() *ast.CodingSec {
	start := p.expectIdent() // CODING
	p.expectPunct("{")
	cs := &ast.CodingSec{Pos: start.Pos}
	// Coding root: resource == elems
	if p.cur().Kind == lexer.IDENT && p.peek().Is("==") {
		cs.CompareTo = p.next().Text
		p.next() // ==
	}
	for !p.cur().Is("}") {
		cs.Elems = append(cs.Elems, p.parseCodingElem())
		p.acceptPunct(";")
	}
	p.next() // }
	if len(cs.Elems) == 0 {
		p.errorf(start, "empty CODING section")
	}
	return cs
}

func (p *Parser) parseCodingElem() ast.CodingElem {
	t := p.cur()
	switch t.Kind {
	case lexer.BINPAT:
		p.next()
		return &ast.CodingPattern{Pos: t.Pos, Bits: p.parseRepeat(t.Text)}
	case lexer.IDENT:
		p.next()
		if p.acceptPunct(":") {
			pt := p.cur()
			if pt.Kind != lexer.BINPAT {
				p.fail(pt, "expected binary pattern after '%s:', found %s", t.Text, pt)
			}
			p.next()
			return &ast.CodingField{Pos: t.Pos, Label: t.Text, Bits: p.parseRepeat(pt.Text)}
		}
		return &ast.CodingRef{Pos: t.Pos, Name: t.Text}
	default:
		p.fail(t, "expected coding element, found %s", t)
		return nil
	}
}

// parseRepeat parses the optional repeat count after a binary pattern,
// as in 0bx[4], and returns the pattern repeated. No coding is wider
// than 64 bits, so neither may a repeated pattern be.
func (p *Parser) parseRepeat(bits string) string {
	if !p.acceptPunct("[") {
		return bits
	}
	n := p.expectNumber()
	p.expectPunct("]")
	if n.Val > 64 || len(bits)*int(n.Val) > 64 {
		p.errorf(n, "pattern 0b%s repeated %s times is wider than 64 bits", bits, n.Text)
		return bits
	}
	return strings.Repeat(bits, int(n.Val))
}

func (p *Parser) parseSyntaxSec() *ast.SyntaxSec {
	start := p.expectIdent() // SYNTAX
	p.expectPunct("{")
	ss := &ast.SyntaxSec{Pos: start.Pos}
	for !p.cur().Is("}") {
		t := p.cur()
		switch t.Kind {
		case lexer.STRING:
			p.next()
			ss.Elems = append(ss.Elems, &ast.SyntaxString{Pos: t.Pos, Text: t.Text})
		case lexer.IDENT:
			p.next()
			ref := &ast.SyntaxRef{Pos: t.Pos, Name: t.Text}
			if p.acceptPunct(":") {
				p.expectPunct("#")
				f := p.expectIdent()
				switch f.Text {
				case "u", "s", "x":
					ref.Format = "#" + f.Text
				default:
					p.errorf(f, "unknown syntax format #%s (want #u, #s or #x)", f.Text)
					ref.Format = "#u"
				}
			}
			ss.Elems = append(ss.Elems, ref)
		default:
			p.fail(t, "expected syntax element, found %s", t)
		}
		p.acceptPunct(";")
	}
	p.next() // }
	return ss
}

// parseRawSec captures the balanced-brace body of a section as text.
func (p *Parser) parseRawSec(name string) ast.Section {
	start := p.expectIdent()
	p.expectPunct("{")
	var sb strings.Builder
	depth := 1
	for depth > 0 {
		t := p.cur()
		if t.Kind == lexer.EOF {
			p.fail(t, "unterminated %s section", name)
		}
		if t.Is("{") {
			depth++
		}
		if t.Is("}") {
			depth--
			if depth == 0 {
				p.next()
				break
			}
		}
		// Join tokens readably: no space before closing punctuation or
		// separators, none after opening brackets.
		text := t.Text
		if t.Kind == lexer.STRING {
			text = fmt.Sprintf("%q", t.Text)
		}
		if sb.Len() > 0 && !noSpaceBefore(text) && !noSpaceAfterLast(sb.String()) {
			sb.WriteByte(' ')
		}
		sb.WriteString(text)
		p.next()
	}
	if name == "SEMANTICS" {
		return &ast.SemanticsSec{Pos: start.Pos, Text: sb.String()}
	}
	return &ast.CustomSec{Pos: start.Pos, Name: name, Text: sb.String()}
}

func noSpaceBefore(tok string) bool {
	switch tok {
	case ",", ";", ")", "]", ".", "..":
		return true
	}
	return false
}

func noSpaceAfterLast(s string) bool {
	switch s[len(s)-1] {
	case '(', '[', '.':
		return true
	}
	return false
}

func (p *Parser) parseExpressionSec() *ast.ExpressionSec {
	start := p.expectIdent() // EXPRESSION
	p.expectPunct("{")
	x := p.parseExpr()
	p.acceptPunct(";")
	p.expectPunct("}")
	return &ast.ExpressionSec{Pos: start.Pos, X: x}
}

// --- compile-time conditional structuring ------------------------------------

func (p *Parser) parseSwitchSec() *ast.SwitchSec {
	start := p.expectIdent() // SWITCH
	p.expectPunct("(")
	group := p.expectIdent().Text
	p.expectPunct(")")
	p.expectPunct("{")
	ss := &ast.SwitchSec{Pos: start.Pos, Group: group}
	for !p.cur().Is("}") {
		t := p.cur()
		var c ast.SwitchSecCase
		switch {
		case t.IsIdent("CASE"):
			p.next()
			c.Members = append(c.Members, p.expectIdent().Text)
			for p.acceptPunct(",") {
				c.Members = append(c.Members, p.expectIdent().Text)
			}
		case t.IsIdent("DEFAULT"):
			p.next()
			c.Default = true
		default:
			p.fail(t, "expected CASE or DEFAULT in SWITCH section, found %s", t)
		}
		p.expectPunct(":")
		p.expectPunct("{")
		c.Sections = p.parseSections()
		p.expectPunct("}")
		ss.Cases = append(ss.Cases, c)
	}
	p.next() // }
	if len(ss.Cases) == 0 {
		p.errorf(start, "SWITCH section has no cases")
	}
	return ss
}

func (p *Parser) parseIfSec() *ast.IfSec {
	start := p.expectIdent() // IF
	p.expectPunct("(")
	group := p.expectIdent().Text
	neg := false
	switch {
	case p.acceptPunct("=="):
	case p.acceptPunct("!="):
		neg = true
	default:
		p.fail(p.cur(), "expected == or != in IF section condition")
	}
	member := p.expectIdent().Text
	p.expectPunct(")")
	sec := &ast.IfSec{Pos: start.Pos, Group: group, Member: member, Negate: neg}
	p.expectPunct("{")
	sec.Then = p.parseSections()
	p.expectPunct("}")
	if p.acceptIdent("ELSE") {
		p.expectPunct("{")
		sec.Else = p.parseSections()
		p.expectPunct("}")
	}
	return sec
}

// --- ACTIVATION --------------------------------------------------------------

func (p *Parser) parseActivationSec() *ast.ActivationSec {
	start := p.expectIdent() // ACTIVATION
	p.expectPunct("{")
	as := &ast.ActivationSec{Pos: start.Pos}
	as.Items = p.parseActItems()
	p.expectPunct("}")
	return as
}

// parseActItems parses an activation list until the enclosing '}' (not
// consumed). Separators: ',' (concurrent) and ';' (one extra control step).
func (p *Parser) parseActItems() []ast.ActItem {
	var items []ast.ActItem
	delay := 0
	for {
		// Separators may precede an item: each ';' adds one control step of
		// delay for everything that follows (a leading ';' delays the first
		// item, e.g. ACTIVATION { ; Dispatch } re-activates next step).
		for {
			if p.acceptPunct(",") {
				continue
			}
			if p.acceptPunct(";") {
				delay++
				continue
			}
			break
		}
		if p.cur().Is("}") {
			return items
		}
		if p.cur().Kind == lexer.EOF {
			p.fail(p.cur(), "unterminated ACTIVATION section")
		}
		item := p.parseActItem(delay)
		if item != nil {
			items = append(items, item)
		}
	}
}

func (p *Parser) parseActItem(delay int) ast.ActItem {
	t := p.cur()
	switch {
	case t.IsIdent("if"):
		p.next()
		p.expectPunct("(")
		cond := p.parseExpr()
		p.expectPunct(")")
		p.expectPunct("{")
		then := p.parseActItems()
		p.expectPunct("}")
		node := &ast.ActIf{Pos: t.Pos, Cond: cond, Then: then}
		if p.acceptIdent("else") {
			if p.cur().IsIdent("if") {
				node.Else = []ast.ActItem{p.parseActItem(0)}
			} else {
				p.expectPunct("{")
				node.Else = p.parseActItems()
				p.expectPunct("}")
			}
		}
		return node
	case t.IsIdent("switch"):
		p.next()
		p.expectPunct("(")
		tag := p.parseExpr()
		p.expectPunct(")")
		p.expectPunct("{")
		node := &ast.ActSwitch{Pos: t.Pos, Tag: tag}
		for !p.cur().Is("}") {
			var c ast.ActCase
			switch {
			case p.acceptIdent("case"):
				c.Vals = append(c.Vals, p.parseExpr())
				for p.acceptPunct(",") {
					c.Vals = append(c.Vals, p.parseExpr())
				}
			case p.acceptIdent("default"):
				c.Default = true
			default:
				p.fail(p.cur(), "expected case or default in activation switch")
			}
			p.expectPunct(":")
			p.expectPunct("{")
			c.Items = p.parseActItems()
			p.expectPunct("}")
			node.Cases = append(node.Cases, c)
		}
		p.next() // }
		return node
	case t.Kind == lexer.IDENT:
		// operation/group ref, or pipeline op pipe[.stage].op()
		first := p.next().Text
		if !p.cur().Is(".") {
			// plain ref; tolerate trailing ()
			if p.acceptPunct("(") {
				p.expectPunct(")")
			}
			return &ast.ActRef{Pos: t.Pos, Name: first, Delay: delay}
		}
		var parts []string
		parts = append(parts, first)
		for p.acceptPunct(".") {
			parts = append(parts, p.expectIdent().Text)
		}
		hasCall := p.acceptPunct("(")
		if hasCall {
			p.expectPunct(")")
		}
		last := parts[len(parts)-1]
		if hasCall && (last == "shift" || last == "stall" || last == "flush") {
			po := &ast.ActPipeOp{Pos: t.Pos, Pipe: parts[0], Op: last, Delay: delay}
			if len(parts) == 3 {
				po.Stage = parts[1]
			} else if len(parts) != 2 {
				p.errorf(t, "malformed pipeline operation %s", strings.Join(parts, "."))
			}
			return po
		}
		p.errorf(t, "malformed activation item %s", strings.Join(parts, "."))
		return nil
	default:
		p.fail(t, "expected activation item, found %s", t)
		return nil
	}
}
