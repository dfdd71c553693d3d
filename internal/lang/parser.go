package lang

import "fmt"

// MaxNesting bounds how deeply a MiniJ function may nest: each if,
// while or for statement (an else-if included), parenthesised or
// indexed expression and unary operator takes one level. The parser
// recurses once per level, so the bound keeps deeply nested input from
// exhausting the goroutine stack, which is fatal rather than an error.
const MaxNesting = 256

// Parser builds the AST by recursive descent.
type Parser struct {
	toks  []Token
	pos   int
	depth int // open nesting levels; see MaxNesting
}

// Parse tokenises and parses a MiniJ compilation unit.
func Parse(src string) (*Program, error) {
	toks, err := Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	for p.cur().Kind != TokEOF {
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	if len(prog.Funcs) == 0 {
		return nil, fmt.Errorf("lang: empty program")
	}
	return prog, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

// next consumes the current token; at EOF it stays put, so truncated
// input reaches an "expected …, found end of file" error.
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(kind TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != kind {
		return t, fmt.Errorf("lang: %s: expected %s, found %s", t.Pos, kind, describe(t))
	}
	p.pos++
	return t, nil
}

// nest opens one nesting level at the current token, failing past
// MaxNesting; callers defer p.unnest().
func (p *Parser) nest() error {
	if p.depth == MaxNesting {
		return fmt.Errorf("lang: %s: nesting deeper than %d", p.cur().Pos, MaxNesting)
	}
	p.depth++
	return nil
}

func (p *Parser) unnest() { p.depth-- }

func describe(t Token) string {
	if t.Lit != "" {
		return fmt.Sprintf("%s %q", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

func (p *Parser) parseFunc() (*Func, error) {
	start, err := p.expect(TokKwVoid)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &Func{Name: name.Lit, Pos: start.Pos}
	if p.cur().Kind != TokRParen {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, param)
			if p.cur().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseParam() (*Param, error) {
	kw, err := p.expect(TokKwInt)
	if err != nil {
		return nil, err
	}
	isArray := false
	if p.cur().Kind == TokLBracket {
		p.next()
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		isArray = true
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	return &Param{Name: name.Lit, IsArray: isArray, Pos: kw.Pos}, nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, fmt.Errorf("lang: %s: unterminated block", p.cur().Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // }
	return stmts, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokKwInt:
		s, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return s, nil
	case TokKwIf:
		return p.parseIf()
	case TokKwWhile:
		return p.parseWhile()
	case TokKwFor:
		return p.parseFor()
	case TokKwPartition:
		t := p.next()
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return &PartitionStmt{Pos: t.Pos}, nil
	case TokIdent:
		s, err := p.parseAssignOrStore()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemicolon); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("lang: %s: unexpected %s at statement start", p.cur().Pos, describe(p.cur()))
	}
}

func (p *Parser) parseDecl() (Stmt, error) {
	kw := p.next() // int
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: name.Lit, Pos: kw.Pos}
	if p.cur().Kind == TokAssign {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	return d, nil
}

func (p *Parser) parseAssignOrStore() (Stmt, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokAssign:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name.Lit, Expr: e, Pos: name.Pos}, nil
	case TokLBracket:
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &StoreStmt{Array: name.Lit, Index: idx, Expr: e, Pos: name.Pos}, nil
	default:
		return nil, fmt.Errorf("lang: %s: expected = or [ after %q", p.cur().Pos, name.Lit)
	}
}

func (p *Parser) parseIf() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then, Pos: kw.Pos}
	if p.cur().Kind == TokKwElse {
		p.next()
		if p.cur().Kind == TokKwIf {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = []Stmt{elif}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: kw.Pos}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	kw := p.next()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos: kw.Pos}
	if p.cur().Kind != TokSemicolon {
		var init Stmt
		var err error
		if p.cur().Kind == TokKwInt {
			init, err = p.parseDecl()
		} else {
			init, err = p.parseAssignOrStore()
		}
		if err != nil {
			return nil, err
		}
		switch init.(type) {
		case *DeclStmt, *AssignStmt:
		default:
			return nil, fmt.Errorf("lang: %s: for-init must be a declaration or scalar assignment", kw.Pos)
		}
		s.Init = init
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokSemicolon {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(TokSemicolon); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokRParen {
		post, err := p.parseAssignOrStore()
		if err != nil {
			return nil, err
		}
		if _, ok := post.(*AssignStmt); !ok {
			return nil, fmt.Errorf("lang: %s: for-post must be a scalar assignment", kw.Pos)
		}
		s.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Expression parsing: precedence climbing matching Java.

func (p *Parser) parseExpr() (Expr, error) { return p.parseLOr() }

func (p *Parser) binLevel(sub func() (Expr, error), ops map[TokenKind]BinOp) (Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := ops[p.cur().Kind]
		if !ok {
			return l, nil
		}
		pos := p.next().Pos
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Pos: pos}
	}
}

func (p *Parser) parseLOr() (Expr, error) {
	return p.binLevel(p.parseLAnd, map[TokenKind]BinOp{TokOrOr: OpLOr})
}

func (p *Parser) parseLAnd() (Expr, error) {
	return p.binLevel(p.parseBitOr, map[TokenKind]BinOp{TokAndAnd: OpLAnd})
}

func (p *Parser) parseBitOr() (Expr, error) {
	return p.binLevel(p.parseBitXor, map[TokenKind]BinOp{TokPipe: OpOr})
}

func (p *Parser) parseBitXor() (Expr, error) {
	return p.binLevel(p.parseBitAnd, map[TokenKind]BinOp{TokCaret: OpXor})
}

func (p *Parser) parseBitAnd() (Expr, error) {
	return p.binLevel(p.parseEquality, map[TokenKind]BinOp{TokAmp: OpAnd})
}

func (p *Parser) parseEquality() (Expr, error) {
	return p.binLevel(p.parseRelational, map[TokenKind]BinOp{TokEq: OpEq, TokNe: OpNe})
}

func (p *Parser) parseRelational() (Expr, error) {
	return p.binLevel(p.parseShift, map[TokenKind]BinOp{
		TokLt: OpLt, TokLe: OpLe, TokGt: OpGt, TokGe: OpGe,
	})
}

func (p *Parser) parseShift() (Expr, error) {
	return p.binLevel(p.parseAdditive, map[TokenKind]BinOp{
		TokShl: OpShl, TokShr: OpShr, TokUshr: OpUshr,
	})
}

func (p *Parser) parseAdditive() (Expr, error) {
	return p.binLevel(p.parseMultiplicative, map[TokenKind]BinOp{
		TokPlus: OpAdd, TokMinus: OpSub,
	})
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	return p.binLevel(p.parseUnary, map[TokenKind]BinOp{
		TokStar: OpMul, TokSlash: OpDiv, TokPercent: OpMod,
	})
}

func (p *Parser) parseUnary() (Expr, error) {
	var op UnaryOp
	switch p.cur().Kind {
	case TokMinus:
		op = OpNeg
	case TokTilde:
		op = OpBNot
	case TokBang:
		op = OpLNot
	default:
		return p.parsePrimary()
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	pos := p.next().Pos
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &UnaryExpr{Op: op, X: x, Pos: pos}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case TokInt:
		t := p.next()
		return &IntLit{Val: t.Val, Pos: t.Pos}, nil
	case TokIdent:
		t := p.next()
		if p.cur().Kind == TokLBracket {
			if err := p.nest(); err != nil {
				return nil, err
			}
			defer p.unnest()
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Array: t.Lit, Index: idx, Pos: t.Pos}, nil
		}
		return &VarRef{Name: t.Lit, Pos: t.Pos}, nil
	case TokLParen:
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("lang: %s: unexpected %s in expression", p.cur().Pos, describe(p.cur()))
	}
}
