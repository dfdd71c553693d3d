// Package fsmsim executes the behavioural FSM descriptions of fsm.xml as
// clocked simulator components — the role the generated fsm.java plays in
// the paper's flow.
package fsmsim

import (
	"fmt"
	"strings"
)

// Cond is a compiled transition guard evaluated against the live status
// signals each clock edge.
type Cond interface {
	Eval(env Env) bool
	String() string
}

// Env reports the current truth value (defined and non-zero) of the
// status input at position i among the FSM's declared inputs.
type Env interface {
	Truth(i int) bool
}

type condTrue struct{}

func (condTrue) Eval(Env) bool  { return true }
func (condTrue) String() string { return "1" }

type condFalse struct{}

func (condFalse) Eval(Env) bool  { return false }
func (condFalse) String() string { return "0" }

// condVar reads status input idx; name is kept for String.
type condVar struct {
	name string
	idx  int
}

func (v condVar) Eval(env Env) bool { return env.Truth(v.idx) }
func (v condVar) String() string    { return v.name }

type condNot struct{ x Cond }

func (n condNot) Eval(env Env) bool { return !n.x.Eval(env) }
func (n condNot) String() string    { return "!" + n.x.String() }

type condAnd struct{ l, r Cond }

func (a condAnd) Eval(env Env) bool { return a.l.Eval(env) && a.r.Eval(env) }
func (a condAnd) String() string    { return "(" + a.l.String() + " & " + a.r.String() + ")" }

type condOr struct{ l, r Cond }

func (o condOr) Eval(env Env) bool { return o.l.Eval(env) || o.r.Eval(env) }
func (o condOr) String() string    { return "(" + o.l.String() + " | " + o.r.String() + ")" }

// MaxNesting bounds how deeply '!' and '(' may nest in a guard. The
// parser recurses once per level, so the bound keeps a deeply nested
// guard in an fsm.xml loaded from disk from exhausting the goroutine
// stack, which is fatal rather than an error. Compiler-generated
// guards use neither.
const MaxNesting = 256

// ParseCond compiles a guard expression. The grammar, lowest precedence
// first:  or := and ('|' and)* ; and := unary ('&' unary)* ;
// unary := '!' unary | '(' or ')' | '0' | '1' | identifier.
// An empty expression is the always-true default guard. Identifiers
// must name a declared status input; each resolves to its position in
// inputs, so evaluation indexes rather than looks names up. Nesting
// deeper than MaxNesting is an error naming the offending offset.
func ParseCond(src string, inputs []string) (Cond, error) {
	p := &condParser{src: src, inputs: inputs}
	p.next()
	if p.tok == tokEOF {
		return condTrue{}, nil
	}
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("fsmsim: cond %q: trailing input at %q", src, p.lit)
	}
	return c, nil
}

type condToken int

const (
	tokEOF condToken = iota
	tokIdent
	tokNot
	tokAnd
	tokOr
	tokLParen
	tokRParen
	tokZero
	tokOne
	tokBad
)

type condParser struct {
	src    string
	pos    int
	tok    condToken
	lit    string
	inputs []string
	depth  int // open '!' and '(' levels; see MaxNesting
}

func (p *condParser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch c {
	case '!':
		p.tok, p.lit = tokNot, "!"
		p.pos++
	case '&':
		p.tok, p.lit = tokAnd, "&"
		p.pos++
	case '|':
		p.tok, p.lit = tokOr, "|"
		p.pos++
	case '(':
		p.tok, p.lit = tokLParen, "("
		p.pos++
	case ')':
		p.tok, p.lit = tokRParen, ")"
		p.pos++
	case '0':
		p.tok, p.lit = tokZero, "0"
		p.pos++
	case '1':
		p.tok, p.lit = tokOne, "1"
		p.pos++
	default:
		if isIdentStart(c) {
			start := p.pos
			for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
				p.pos++
			}
			p.tok, p.lit = tokIdent, p.src[start:p.pos]
			return
		}
		p.tok, p.lit = tokBad, string(c)
		p.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || ('0' <= c && c <= '9') }

func (p *condParser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOr {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = condOr{l, r}
	}
	return l, nil
}

func (p *condParser) parseAnd() (Cond, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok == tokAnd {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = condAnd{l, r}
	}
	return l, nil
}

func (p *condParser) parseUnary() (Cond, error) {
	if p.tok == tokNot || p.tok == tokLParen {
		if p.depth == MaxNesting {
			return nil, fmt.Errorf("fsmsim: cond: nesting deeper than %d at offset %d", MaxNesting, p.pos-1)
		}
		p.depth++
		defer func() { p.depth-- }()
	}
	switch p.tok {
	case tokNot:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return condNot{x}, nil
	case tokLParen:
		p.next()
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("fsmsim: cond %q: missing )", p.src)
		}
		p.next()
		return x, nil
	case tokZero:
		p.next()
		return condFalse{}, nil
	case tokOne:
		p.next()
		return condTrue{}, nil
	case tokIdent:
		name := p.lit
		for i, in := range p.inputs {
			if in == name {
				p.next()
				return condVar{name, i}, nil
			}
		}
		return nil, fmt.Errorf("fsmsim: cond %q: unknown status %q", p.src, name)
	default:
		if strings.TrimSpace(p.lit) == "" {
			return nil, fmt.Errorf("fsmsim: cond %q: unexpected end", p.src)
		}
		return nil, fmt.Errorf("fsmsim: cond %q: unexpected %q", p.src, p.lit)
	}
}
