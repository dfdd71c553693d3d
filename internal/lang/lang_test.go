package lang

import (
	"fmt"
	"strings"
	"testing"
)

func TestLexerBasics(t *testing.T) {
	toks, err := Tokens("void f(int[] a, int n) { a[0] = n + 0x1F; } // tail")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{
		TokKwVoid, TokIdent, TokLParen, TokKwInt, TokLBracket, TokRBracket,
		TokIdent, TokComma, TokKwInt, TokIdent, TokRParen, TokLBrace,
		TokIdent, TokLBracket, TokInt, TokRBracket, TokAssign, TokIdent,
		TokPlus, TokInt, TokSemicolon, TokRBrace, TokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d: %v want %v", i, toks[i].Kind, k)
		}
	}
	if toks[19].Val != 0x1F {
		t.Fatalf("hex literal=%d", toks[19].Val)
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := Tokens("<< >> >>> <= >= == != && || & | ^ ~ ! < >")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokShl, TokShr, TokUshr, TokLe, TokGe, TokEq, TokNe, TokAndAnd,
		TokOrOr, TokAmp, TokPipe, TokCaret, TokTilde, TokBang, TokLt, TokGt, TokEOF,
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d: %v want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Tokens("/* block\n comment */ x // line\n y")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Lit != "x" || toks[1].Lit != "y" {
		t.Fatalf("toks=%v", toks)
	}
	if toks[1].Pos.Line != 3 {
		t.Fatalf("y at line %d want 3", toks[1].Pos.Line)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "/* open", "99999999999999999999", "3000000000", "0x1FFFFFFFF"} {
		if _, err := Tokens(src); err == nil {
			t.Errorf("Tokens(%q) must fail", src)
		}
	}
}

func TestLexerNegativeBoundaryLiteral(t *testing.T) {
	// 2147483648 alone exceeds int but is accepted as magnitude for
	// unary minus handling at parse level: the lexer allows up to 1<<31.
	toks, err := Tokens("2147483648")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Val != -2147483648 {
		t.Fatalf("val=%d", toks[0].Val)
	}
}

const fdctLikeSrc = `
// Row pass then column pass with a partition boundary.
void f(int[] img, int[] tmp, int[] out) {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    tmp[i] = img[i] * 2;
  }
  partition;
  int j;
  for (j = 0; j < 8; j = j + 1) {
    out[j] = tmp[j] + 1;
  }
}
`

func TestParseProgram(t *testing.T) {
	prog, err := Parse(fdctLikeSrc)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := prog.FindFunc("f")
	if !ok {
		t.Fatal("function f missing")
	}
	if len(f.Params) != 3 || !f.Params[0].IsArray {
		t.Fatalf("params=%+v", f.Params)
	}
	if len(f.Body) != 5 { // decl, for, partition, decl, for
		t.Fatalf("body has %d stmts", len(f.Body))
	}
	if _, ok := f.Body[2].(*PartitionStmt); !ok {
		t.Fatalf("stmt 2 is %T", f.Body[2])
	}
	loop, ok := f.Body[1].(*ForStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T", f.Body[1])
	}
	if _, ok := loop.Body[0].(*StoreStmt); !ok {
		t.Fatalf("loop body is %T", loop.Body[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("void f(int a, int b, int c) { int x = a + b * c << 1 & 3; }")
	if err != nil {
		t.Fatal(err)
	}
	decl := prog.Funcs[0].Body[0].(*DeclStmt)
	// & is lowest here: ((a + (b*c)) << 1) & 3
	and, ok := decl.Init.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("root=%+v", decl.Init)
	}
	shl, ok := and.L.(*BinaryExpr)
	if !ok || shl.Op != OpShl {
		t.Fatalf("left=%+v", and.L)
	}
	add, ok := shl.L.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("shl.L=%+v", shl.L)
	}
	mul, ok := add.R.(*BinaryExpr)
	if !ok || mul.Op != OpMul {
		t.Fatalf("add.R=%+v", add.R)
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `void f(int a, int b) {
	  int x = 0;
	  if (a < b) { x = 1; } else if (a == b) { x = 2; } else { x = 3; }
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	iff := prog.Funcs[0].Body[1].(*IfStmt)
	if len(iff.Else) != 1 {
		t.Fatalf("else=%d", len(iff.Else))
	}
	if _, ok := iff.Else[0].(*IfStmt); !ok {
		t.Fatalf("else[0]=%T", iff.Else[0])
	}
}

func TestParseWhileAndUnary(t *testing.T) {
	src := `void f(int n) { int i = 0; while (!(i >= n)) { i = i + 1; } int y = -i + ~n; }`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src    string
		expect string
	}{
		{"", "empty program"},
		{"void f( { }", "expected"},
		{"void f() { x = ; }", "unexpected"},
		{"void f() { int 3; }", "expected identifier"},
		{"void f() { if (1) x = 2; }", "expected {"},
		{"void f() { for (a[0]=1;;) {} }", "for-init"},
		{"void f(int[] a) { for (;;a[0]=1) {} }", "for-post"},
		{"void f() { x = 1 }", "expected ;"},
		{"void f() {", "unterminated block"},
		{"int f() {}", "expected void"},
		{"void f() { for (", "expected identifier, found end of file"},
		{"void f() { for (i = 0; i < 4; ", "expected identifier, found end of file"},
		{"void f() { for (5 = 0;;) {} }", "expected identifier"},
		// One level past MaxNesting, in each construct that nests.
		{nestedParens(MaxNesting + 1), fmt.Sprintf("1:%d: nesting deeper than %d", 16+MaxNesting, MaxNesting)},
		{"void f() { x = " + strings.Repeat("!", MaxNesting+1) + "1; }", "nesting deeper than"},
		{"void f() { x = " + strings.Repeat("a[", MaxNesting+1) + "0" + strings.Repeat("]", MaxNesting+1) + "; }", "nesting deeper than"},
		{"void f() { " + strings.Repeat("while (1) { ", MaxNesting+1) + strings.Repeat("} ", MaxNesting+2), "nesting deeper than"},
		{"void f() { if (1) { } " + strings.Repeat("else if (1) { } ", MaxNesting) + "}", "nesting deeper than"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) must fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.expect) {
			t.Errorf("Parse(%q): error %q does not mention %q", c.src, err, c.expect)
		}
	}
	// At MaxNesting itself every construct still parses.
	for _, src := range []string{
		nestedParens(MaxNesting),
		"void f() { x = " + strings.Repeat("!", MaxNesting) + "1; }",
		"void f() { x = " + strings.Repeat("a[", MaxNesting) + "0" + strings.Repeat("]", MaxNesting) + "; }",
		"void f() { " + strings.Repeat("while (1) { ", MaxNesting) + strings.Repeat("} ", MaxNesting+1),
		"void f() { if (1) { } " + strings.Repeat("else if (1) { } ", MaxNesting-1) + "}",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse at the nesting bound: %v", err)
		}
	}
}

// nestedParens is a one-statement function whose right-hand side sits
// n parentheses deep; the first '(' is at column 16.
func nestedParens(n int) string {
	return "void f() { x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
}

func TestAnalyzeAcceptsGood(t *testing.T) {
	prog, err := Parse(fdctLikeSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	fi := info.Funcs["f"]
	if fi.Partitions != 2 {
		t.Fatalf("partitions=%d", fi.Partitions)
	}
	if len(fi.Arrays) != 3 || fi.Arrays[0] != "img" {
		t.Fatalf("arrays=%v", fi.Arrays)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		src    string
		expect string
	}{
		{"void f() { x = 1; }", "undeclared"},
		{"void f() { int x; int x; }", "already declared"},
		{"void f(int a) { int a; }", "already declared"},
		{"void f(int[] a) { a = 1; }", "cannot assign to array"},
		{"void f(int a) { a[0] = 1; }", "not an array"},
		{"void f(int a) { a = 2; }", "scalar parameter"},
		{"void f(int[] a) { int x = a; }", "without an index"},
		{"void f(int a) { int x = a[0]; }", "not an array"},
		{"void f() { int y = ghost + 1; }", "undeclared"},
		{"void f() { if (1) { partition; } }", "top level"},
		{"void f() { int i; partition; i = 1; }", "undeclared"},
		{"void f() {} void f() {}", "duplicate function"},
		{"void f() { int i = 0; for (int i = 0; i < 3; i = i + 1) {} }", "already declared"},
	}
	for _, c := range cases {
		prog, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = Analyze(prog)
		if err == nil {
			t.Errorf("Analyze(%q) must fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.expect) {
			t.Errorf("Analyze(%q): error %q does not mention %q", c.src, err, c.expect)
		}
	}
}

func TestAnalyzeForScopes(t *testing.T) {
	// The for-init declaration is scoped to the loop; reusing the name
	// after the loop is fine.
	src := `void f(int[] a) {
	  for (int i = 0; i < 4; i = i + 1) { a[i] = i; }
	  for (int i = 0; i < 4; i = i + 1) { a[i] = a[i] + 1; }
	  int i = 9;
	  a[0] = i;
	}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
}

func TestPosReporting(t *testing.T) {
	_, err := Parse("void f() {\n  int x =\n}")
	if err == nil || !strings.Contains(err.Error(), "3:") {
		t.Fatalf("err=%v (want line 3 position)", err)
	}
}
