package compiler

import (
	"strings"
	"testing"

	"repro/internal/hades"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/rtg"
	"repro/internal/xmlspec"
)

// runBoth compiles src, simulates the generated design, interprets the
// source as golden reference, and returns both memory states.
func runBoth(t *testing.T, src, fn string, sizes map[string]int,
	args map[string]int64, inputs map[string][]int64) (hw, sw map[string][]int64) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prog, fn, Config{ArraySizes: sizes, ScalarArgs: args})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := rtg.NewController(res.Design, rtgTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	sw = map[string][]int64{}
	for name, depth := range sizes {
		words := make([]int64, depth)
		copy(words, inputs[name])
		if err := ctl.LoadMemory(name, words); err != nil {
			t.Fatal(err)
		}
		ref := make([]int64, depth)
		copy(ref, inputs[name])
		sw[name] = ref
	}
	exec, err := ctl.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Completed {
		t.Fatalf("simulation incomplete: %+v", exec)
	}
	hw = map[string][]int64{}
	for name := range sizes {
		words, err := ctl.Memory(name)
		if err != nil {
			t.Fatal(err)
		}
		hw[name] = words
	}
	if _, err := interp.Run(res.Func, sw, args, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	return hw, sw
}

func assertEqualMems(t *testing.T, hw, sw map[string][]int64) {
	t.Helper()
	for name, ref := range sw {
		got := hw[name]
		if len(got) != len(ref) {
			t.Fatalf("%s: len %d vs %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s[%d]: hw=%d sw=%d (hw=%v sw=%v)", name, i, got[i], ref[i], got, ref)
			}
		}
	}
}

func TestCompileCounterStructure(t *testing.T) {
	src := `void count(int[] out) {
	  int i;
	  for (i = 0; i < 8; i = i + 1) { out[i] = i * 2; }
	}`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prog, "count", Config{ArraySizes: map[string]int{"out": 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meta) != 1 {
		t.Fatalf("meta=%v", res.Meta)
	}
	m := res.Meta[0]
	if m.Operators < 6 {
		t.Fatalf("operators=%d suspiciously few", m.Operators)
	}
	if m.States < 4 {
		t.Fatalf("states=%d suspiciously few", m.States)
	}
	if len(res.Design.RTG.Memories) != 1 || res.Design.RTG.Memories[0].ID != "out" {
		t.Fatalf("memories=%v", res.Design.RTG.Memories)
	}
}

func TestEndToEndArithmetic(t *testing.T) {
	src := `void f(int[] r, int a, int b) {
	  r[0] = a + b;
	  r[1] = a - b;
	  r[2] = a * b;
	  r[3] = a / b;
	  r[4] = a % b;
	  r[5] = (a << 2) + (b >> 1);
	  r[6] = (a & b) | (a ^ b);
	  r[7] = -a + ~b;
	}`
	hw, sw := runBoth(t, src, "f", map[string]int{"r": 8},
		map[string]int64{"a": -57, "b": 13}, nil)
	assertEqualMems(t, hw, sw)
}

func TestEndToEndComparisonsAsValues(t *testing.T) {
	src := `void f(int[] r, int a, int b) {
	  r[0] = a < b;
	  r[1] = a >= b;
	  r[2] = (a == b) + 10;
	  r[3] = (a != b) && (a < 100);
	  r[4] = !a;
	  r[5] = (a > b) || 0;
	}`
	hw, sw := runBoth(t, src, "f", map[string]int{"r": 8},
		map[string]int64{"a": 5, "b": 9}, nil)
	assertEqualMems(t, hw, sw)
}

func TestEndToEndLoopOverArray(t *testing.T) {
	src := `void f(int[] a, int[] b, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    b[i] = a[i] * a[i] + 1;
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 8, "b": 8},
		map[string]int64{"n": 8},
		map[string][]int64{"a": {3, -1, 4, 1, -5, 9, 2, 6}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndIfElseInLoop(t *testing.T) {
	src := `void f(int[] a, int[] b, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    if (a[i] < 0) { b[i] = -a[i]; } else { b[i] = a[i] * 2; }
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 6, "b": 6},
		map[string]int64{"n": 6},
		map[string][]int64{"a": {3, -7, 0, -2, 8, -9}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndNestedLoops(t *testing.T) {
	src := `void f(int[] m, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    for (int j = 0; j < n; j = j + 1) {
	      m[i * n + j] = i * 10 + j;
	    }
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"m": 16}, map[string]int64{"n": 4}, nil)
	assertEqualMems(t, hw, sw)
}

func TestEndToEndWhileWithAccumulator(t *testing.T) {
	src := `void f(int[] a, int[] s, int n) {
	  int acc = 0;
	  int i = 0;
	  while (i < n) {
	    acc = acc + a[i];
	    i = i + 1;
	  }
	  s[0] = acc;
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 5, "s": 1},
		map[string]int64{"n": 5},
		map[string][]int64{"a": {10, 20, 30, 40, 50}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndMultipleReadsSameArray(t *testing.T) {
	src := `void f(int[] a, int[] b, int n) {
	  for (int i = 1; i < n; i = i + 1) {
	    b[i] = a[i] - a[i - 1];
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 6, "b": 6},
		map[string]int64{"n": 6},
		map[string][]int64{"a": {1, 4, 9, 16, 25, 36}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndIndirectAddressing(t *testing.T) {
	src := `void f(int[] idx, int[] a, int[] b, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    b[i] = a[idx[i]];
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"idx": 4, "a": 4, "b": 4},
		map[string]int64{"n": 4},
		map[string][]int64{"idx": {3, 0, 2, 1}, "a": {100, 200, 300, 400}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndReadModifyWrite(t *testing.T) {
	src := `void f(int[] a, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    a[i] = a[i] + 100;
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 4}, map[string]int64{"n": 4},
		map[string][]int64{"a": {1, 2, 3, 4}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndTwoPartitions(t *testing.T) {
	src := `void f(int[] img, int[] tmp, int[] out, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    tmp[i] = img[i] * 3 - 1;
	  }
	  partition;
	  for (int j = 0; j < n; j = j + 1) {
	    out[j] = tmp[j] + tmp[j] / 2;
	  }
	}`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prog, "f", Config{
		ArraySizes: map[string]int{"img": 8, "tmp": 8, "out": 8},
		ScalarArgs: map[string]int64{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meta) != 2 {
		t.Fatalf("want 2 partitions, got %d", len(res.Meta))
	}
	if len(res.Design.RTG.Transitions) != 1 {
		t.Fatalf("transitions=%v", res.Design.RTG.Transitions)
	}
	hw, sw := runBoth(t, src, "f",
		map[string]int{"img": 8, "tmp": 8, "out": 8},
		map[string]int64{"n": 8},
		map[string][]int64{"img": {5, 10, 15, 20, 25, 30, 35, 40}})
	assertEqualMems(t, hw, sw)
}

func TestEndToEndDivByZeroConvention(t *testing.T) {
	src := `void f(int[] a, int[] b, int n) {
	  for (int i = 0; i < n; i = i + 1) {
	    b[i] = 100 / a[i];
	  }
	}`
	hw, sw := runBoth(t, src, "f",
		map[string]int{"a": 4, "b": 4},
		map[string]int64{"n": 4},
		map[string][]int64{"a": {2, 0, -5, 7}})
	assertEqualMems(t, hw, sw)
}

func TestCompileErrors(t *testing.T) {
	src := `void f(int[] a, int n) { a[0] = n; }`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, "ghost", Config{}); err == nil {
		t.Fatal("unknown function must fail")
	}
	if _, err := Compile(prog, "f", Config{ScalarArgs: map[string]int64{"n": 1}}); err == nil ||
		!strings.Contains(err.Error(), "positive size") {
		t.Fatalf("err=%v", err)
	}
	if _, err := Compile(prog, "f", Config{ArraySizes: map[string]int{"a": 4}}); err == nil ||
		!strings.Contains(err.Error(), "needs a value") {
		t.Fatalf("err=%v", err)
	}
}

func TestSplitPartitions(t *testing.T) {
	src := `void f(int[] a) {
	  a[0] = 1;
	  partition;
	  a[1] = 2;
	  partition;
	  a[2] = 3;
	}`
	prog, _ := lang.Parse(src)
	f, _ := prog.FindFunc("f")
	parts := splitPartitions(f.Body)
	if len(parts) != 3 {
		t.Fatalf("parts=%d", len(parts))
	}
}

func TestAutoSplitRespectsScalarLiveness(t *testing.T) {
	src := `void f(int[] a, int[] b) {
	  int x = 5;
	  a[0] = x;
	  a[1] = x + 1;
	  b[0] = a[0] * 2;
	  b[1] = a[1] * 2;
	}`
	prog, _ := lang.Parse(src)
	f, _ := prog.FindFunc("f")
	parts := autoSplit(f.Body, 2)
	if len(parts) != 2 {
		t.Fatalf("parts=%d", len(parts))
	}
	// The split may not land between the decl of x and its last use.
	firstLen := len(parts[0])
	if firstLen < 3 {
		t.Fatalf("split inside x's live range: first part has %d stmts", firstLen)
	}
}

func TestAutoSplitEndToEnd(t *testing.T) {
	src := `void f(int[] a, int[] b, int[] c, int n) {
	  for (int i = 0; i < n; i = i + 1) { b[i] = a[i] + 7; }
	  for (int j = 0; j < n; j = j + 1) { c[j] = b[j] * 2; }
	}`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(prog, "f", Config{
		ArraySizes:     map[string]int{"a": 4, "b": 4, "c": 4},
		ScalarArgs:     map[string]int64{"n": 4},
		AutoPartitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Meta) != 2 {
		t.Fatalf("auto split produced %d partitions", len(res.Meta))
	}
	ctl, err := rtg.NewController(res.Design, rtgTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.LoadMemory("a", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	exec, err := ctl.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Completed {
		t.Fatal("incomplete")
	}
	cMem, _ := ctl.Memory("c")
	want := []int64{16, 18, 20, 22}
	for i := range want {
		if cMem[i] != want[i] {
			t.Fatalf("c=%v want %v", cMem, want)
		}
	}
}

func TestEstimateWeight(t *testing.T) {
	src := `void f(int[] a) { a[0] = a[1] + a[2] * 3; }`
	prog, _ := lang.Parse(src)
	f, _ := prog.FindFunc("f")
	w := EstimateWeight(f.Body[0])
	// store(1) + idx consts + two loads (2 each) + add + mul = at least 7
	if w < 7 {
		t.Fatalf("weight=%d", w)
	}
}

func TestGeneratedXMLRoundTrips(t *testing.T) {
	src := `void f(int[] a, int n) {
	  for (int i = 0; i < n; i = i + 1) { a[i] = a[i] ^ i; }
	}`
	prog, _ := lang.Parse(src)
	res, err := Compile(prog, "f", Config{
		ArraySizes: map[string]int{"a": 8},
		ScalarArgs: map[string]int64{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := xmlspec.SaveDesign(res.Design, dir); err != nil {
		t.Fatal(err)
	}
	back, err := xmlspec.LoadDesign(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := rtg.NewController(back, rtgTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.LoadMemory("a", []int64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	exec, err := ctl.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Completed {
		t.Fatal("incomplete after XML round trip")
	}
	a, _ := ctl.Memory("a")
	want := []int64{1 ^ 0, 2 ^ 1, 3 ^ 2, 4 ^ 3, 5 ^ 4, 6 ^ 5, 7 ^ 6, 8 ^ 7}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("a=%v want %v", a, want)
		}
	}
}

// rtgTestOptions supplies the explicit bounds the rtg controller
// requires (it deliberately refuses unset ones), generous enough never
// to bind here. These are not "the defaults" — the canonical values
// live only in internal/flow, which these in-package tests cannot
// import (flow imports the compiler).
func rtgTestOptions() rtg.Options {
	return rtg.Options{ClockPeriod: 10, MaxCycles: 10_000_000, MaxConfigs: 1024}
}

// TestCompileRejectsWidthBeyondKernel pins that a datapath width the
// event kernel cannot carry fails compilation with an error instead of
// panicking when the design is elaborated.
func TestCompileRejectsWidthBeyondKernel(t *testing.T) {
	prog, err := lang.Parse(`void f(int[] a, int n) { a[0] = n; }`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArraySizes: map[string]int{"a": 4}, ScalarArgs: map[string]int64{"n": 1}}
	cfg.Width = hades.MaxWidth + 1
	if _, err := Compile(prog, "f", cfg); err == nil || !strings.Contains(err.Error(), "width 65") {
		t.Fatalf("width 65: err=%v", err)
	}
	cfg.Width = hades.MaxWidth
	if _, err := Compile(prog, "f", cfg); err != nil {
		t.Fatalf("width 64: %v", err)
	}
}
