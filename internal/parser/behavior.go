package parser

import (
	"strings"

	"golisa/internal/ast"
	"golisa/internal/lexer"
)

// --- behavior statements ------------------------------------------------------

// parseBlock parses a braced statement list.
func (p *Parser) parseBlock() *ast.Block {
	open := p.expectPunct("{")
	b := &ast.Block{Pos: open.Pos}
	for !p.cur().Is("}") {
		if p.cur().Kind == lexer.EOF {
			p.fail(p.cur(), "unterminated block")
		}
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.next() // }
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	t := p.cur()
	switch {
	case t.Is("{"):
		return p.parseBlock()
	case t.Is(";"):
		p.next()
		return &ast.EmptyStmt{Pos: t.Pos}
	case t.IsIdent("if"):
		p.next()
		p.expectPunct("(")
		cond := p.parseExpr()
		p.expectPunct(")")
		then := p.parseStmt()
		node := &ast.IfStmt{Pos: t.Pos, Cond: cond, Then: then}
		if p.acceptIdent("else") {
			node.Else = p.parseStmt()
		}
		return node
	case t.IsIdent("while"):
		p.next()
		p.expectPunct("(")
		cond := p.parseExpr()
		p.expectPunct(")")
		return &ast.WhileStmt{Pos: t.Pos, Cond: cond, Body: p.parseStmt()}
	case t.IsIdent("do"):
		p.next()
		body := p.parseStmt()
		if !p.acceptIdent("while") {
			p.fail(p.cur(), "expected 'while' after do body")
		}
		p.expectPunct("(")
		cond := p.parseExpr()
		p.expectPunct(")")
		p.acceptPunct(";")
		return &ast.DoWhileStmt{Pos: t.Pos, Body: body, Cond: cond}
	case t.IsIdent("for"):
		p.next()
		p.expectPunct("(")
		node := &ast.ForStmt{Pos: t.Pos}
		if !p.cur().Is(";") {
			node.Init = p.parseSimpleStmt()
		}
		p.expectPunct(";")
		if !p.cur().Is(";") {
			node.Cond = p.parseExpr()
		}
		p.expectPunct(";")
		if !p.cur().Is(")") {
			node.Post = p.parseSimpleStmt()
		}
		p.expectPunct(")")
		node.Body = p.parseStmt()
		return node
	case t.IsIdent("switch"):
		return p.parseSwitchStmt()
	case t.IsIdent("break"):
		p.next()
		p.acceptPunct(";")
		return &ast.BreakStmt{Pos: t.Pos}
	case t.IsIdent("continue"):
		p.next()
		p.acceptPunct(";")
		return &ast.ContinueStmt{Pos: t.Pos}
	case t.IsIdent("return"):
		p.next()
		node := &ast.ReturnStmt{Pos: t.Pos}
		if !p.cur().Is(";") && !p.cur().Is("}") {
			node.X = p.parseExpr()
		}
		p.acceptPunct(";")
		return node
	default:
		s := p.parseSimpleStmt()
		p.acceptPunct(";")
		return s
	}
}

// parseSimpleStmt parses a declaration, assignment, inc/dec or expression
// statement (no trailing semicolon).
func (p *Parser) parseSimpleStmt() ast.Stmt {
	t := p.cur()
	// Declaration? A type keyword starts one — except when the identifier is
	// used as an expression (e.g. a resource named "bit" would be a modelling
	// error anyway; the type keywords are reserved in behavior code).
	if t.Kind == lexer.IDENT {
		switch t.Text {
		case "int", "long", "unsigned", "bit", "bool":
			ty, _ := p.parseType()
			name := p.expectIdent()
			d := &ast.DeclStmt{Pos: t.Pos, Type: ty, Name: name.Text}
			if p.acceptPunct("=") {
				d.Init = p.parseExpr()
			}
			return d
		}
	}
	x := p.parseExpr()
	cur := p.cur()
	switch {
	case cur.Is("++") || cur.Is("--"):
		p.next()
		return &ast.IncDecStmt{Pos: cur.Pos, X: x, Op: cur.Text}
	case cur.Kind == lexer.PUNCT && isAssignOp(cur.Text):
		p.next()
		rhs := p.parseExpr()
		return &ast.AssignStmt{Pos: cur.Pos, LHS: x, Op: cur.Text, RHS: rhs}
	default:
		return &ast.ExprStmt{Pos: t.Pos, X: x}
	}
}

func isAssignOp(s string) bool {
	switch s {
	case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
		return true
	}
	return false
}

func (p *Parser) parseSwitchStmt() ast.Stmt {
	t := p.next() // switch
	p.expectPunct("(")
	tag := p.parseExpr()
	p.expectPunct(")")
	p.expectPunct("{")
	node := &ast.SwitchStmt{Pos: t.Pos, Tag: tag}
	for !p.cur().Is("}") {
		if p.cur().Kind == lexer.EOF {
			p.fail(p.cur(), "unterminated switch")
		}
		var c ast.SwitchCase
		switch {
		case p.acceptIdent("case"):
			c.Vals = append(c.Vals, p.parseExpr())
			for p.acceptPunct(",") {
				c.Vals = append(c.Vals, p.parseExpr())
			}
		case p.acceptIdent("default"):
			c.Default = true
		default:
			p.fail(p.cur(), "expected case or default in switch, found %s", p.cur())
		}
		p.expectPunct(":")
		for !p.cur().IsIdent("case") && !p.cur().IsIdent("default") && !p.cur().Is("}") {
			if p.cur().IsIdent("break") {
				p.next()
				p.acceptPunct(";")
				break
			}
			c.Stmts = append(c.Stmts, p.parseStmt())
		}
		node.Cases = append(node.Cases, c)
	}
	p.next() // }
	return node
}

// --- behavior expressions -----------------------------------------------------

// Binary operator precedence, C-style; higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseExpr() ast.Expr { return p.parseCond() }

func (p *Parser) parseCond() ast.Expr {
	c := p.parseBinary(1)
	if p.cur().Is("?") {
		q := p.next()
		t := p.parseExpr()
		p.expectPunct(":")
		f := p.parseCond()
		return &ast.CondExpr{Pos: q.Pos, C: c, T: t, F: f}
	}
	return c
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	left := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != lexer.PUNCT {
			return left
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return left
		}
		p.next()
		right := p.parseBinary(prec + 1)
		left = &ast.BinaryExpr{Pos: t.Pos, Op: t.Text, L: left, R: right}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	t := p.cur()
	if t.Is("-") || t.Is("+") || t.Is("!") || t.Is("~") {
		p.next()
		return &ast.UnaryExpr{Pos: t.Pos, Op: t.Text, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		t := p.cur()
		switch {
		case t.Is("["):
			p.next()
			i := p.parseExpr()
			if p.acceptPunct("..") {
				// bit-slice x[hi..lo], mirroring the alias range syntax
				lo := p.parseExpr()
				p.expectPunct("]")
				x = &ast.BitsExpr{Pos: t.Pos, X: x, Hi: i, Lo: lo}
				continue
			}
			p.expectPunct("]")
			x = &ast.IndexExpr{Pos: t.Pos, X: x, I: i}
		case t.Is("."):
			// dotted call path: pipe.stage.op(...) — only valid when it ends
			// in a call.
			id, ok := x.(*ast.Ident)
			if !ok {
				p.fail(t, "'.' selector is only valid on identifiers")
			}
			parts := []string{id.Name}
			for p.acceptPunct(".") {
				parts = append(parts, p.expectIdent().Text)
			}
			if !p.cur().Is("(") {
				p.fail(p.cur(), "dotted name %s must be a call", strings.Join(parts, "."))
			}
			x = p.parseCallArgs(strings.Join(parts, "."), id.Pos)
		case t.Is("("):
			id, ok := x.(*ast.Ident)
			if !ok {
				p.fail(t, "call of non-identifier expression")
			}
			x = p.parseCallArgs(id.Name, id.Pos)
		default:
			return x
		}
	}
}

func (p *Parser) parseCallArgs(name string, pos lexer.Pos) ast.Expr {
	p.expectPunct("(")
	call := &ast.CallExpr{Pos: pos, Name: name}
	for !p.cur().Is(")") {
		call.Args = append(call.Args, p.parseExpr())
		if !p.acceptPunct(",") {
			break
		}
	}
	p.expectPunct(")")
	return call
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case lexer.NUMBER:
		p.next()
		return &ast.NumLit{Pos: t.Pos, Val: t.Val}
	case lexer.BINPAT:
		if strings.ContainsRune(t.Text, 'x') {
			p.fail(t, "binary pattern with don't-care bits is not a value")
		}
		n := p.expectNumber()
		return &ast.NumLit{Pos: t.Pos, Val: n.Val}
	case lexer.STRING:
		p.next()
		return &ast.StrLit{Pos: t.Pos, Val: t.Text}
	case lexer.IDENT:
		p.next()
		return &ast.Ident{Pos: t.Pos, Name: t.Text}
	default:
		if t.Is("(") {
			p.next()
			x := p.parseExpr()
			p.expectPunct(")")
			return x
		}
		p.fail(t, "expected expression, found %s", t)
		return nil
	}
}
