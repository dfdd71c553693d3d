// Package compiler translates MiniJ functions into the XML dialects the
// test infrastructure consumes — the role of the Galadriel & Nenya
// compiler in the paper. The output of Compile is a complete design:
// an RTG over one or more temporal partitions, each with a spatially
// mapped datapath and a Moore FSM control unit.
package compiler

import (
	"fmt"

	"repro/internal/hades"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// Config parameterises compilation. Array sizes and scalar argument
// values are design-time constants (the harness derives them from the
// memory/stimulus files, as the paper's flow does).
type Config struct {
	Width          int // word width; default 32
	ArraySizes     map[string]int
	ScalarArgs     map[string]int64
	AutoPartitions int // >1: split a marker-free body into N partitions
}

// PartitionMeta reports one configuration's size for the Table I columns.
type PartitionMeta struct {
	ID        string
	Datapath  string
	FSM       string
	Operators int // functional units (operators column)
	States    int // FSM states
}

// Result is a compiled design plus its metadata.
type Result struct {
	Design *xmlspec.Design
	Meta   []PartitionMeta
	Func   *lang.Func
}

// Compile builds the design for one function of the program.
func Compile(prog *lang.Program, funcName string, cfg Config) (*Result, error) {
	if _, err := lang.Analyze(prog); err != nil {
		return nil, err
	}
	f, ok := prog.FindFunc(funcName)
	if !ok {
		return nil, fmt.Errorf("compiler: no function %q", funcName)
	}
	width := cfg.Width
	if width <= 0 {
		width = 32
	}
	if width > hades.MaxWidth {
		return nil, fmt.Errorf("compiler: width %d exceeds the kernel's %d-bit limit", width, hades.MaxWidth)
	}
	scalarArgs := map[string]int64{}
	var arrays []*lang.Param
	for _, p := range f.Params {
		if p.IsArray {
			if cfg.ArraySizes[p.Name] <= 0 {
				return nil, fmt.Errorf("compiler: array %q needs a positive size", p.Name)
			}
			arrays = append(arrays, p)
			continue
		}
		v, ok := cfg.ScalarArgs[p.Name]
		if !ok {
			return nil, fmt.Errorf("compiler: scalar parameter %q needs a value", p.Name)
		}
		scalarArgs[p.Name] = v
	}

	parts := splitPartitions(f.Body)
	if len(parts) == 1 && cfg.AutoPartitions > 1 {
		parts = autoSplit(f.Body, cfg.AutoPartitions)
	}

	rtg := &xmlspec.RTG{Name: funcName, Start: "cfg1"}
	for _, p := range arrays {
		rtg.Memories = append(rtg.Memories, xmlspec.SharedMemory{
			ID: p.Name, Width: width, Depth: cfg.ArraySizes[p.Name],
			File: p.Name + ".mem",
		})
	}
	design := xmlspec.NewDesign(rtg)
	res := &Result{Design: design, Func: f}

	for i, body := range parts {
		cfgID := fmt.Sprintf("cfg%d", i+1)
		b := newBuilder(fmt.Sprintf("%s_p%d", funcName, i+1), width, scalarArgs, cfg.ArraySizes)
		dp, fsm, err := b.finalize(body)
		if err != nil {
			return nil, err
		}
		design.AddConfiguration(cfgID, dp, fsm)
		res.Meta = append(res.Meta, PartitionMeta{
			ID: cfgID, Datapath: dp.Name, FSM: fsm.Name,
			Operators: dp.OperatorCount(), States: fsm.StateCount(),
		})
		if i > 0 {
			rtg.Transitions = append(rtg.Transitions, xmlspec.RTGTransition{
				From: fmt.Sprintf("cfg%d", i), To: cfgID, On: "done",
			})
		}
	}
	if err := xmlspec.ValidateDesign(design, operators.DefaultRegistry()); err != nil {
		return nil, fmt.Errorf("compiler: generated design invalid: %w", err)
	}
	return res, nil
}

// splitPartitions cuts the body at top-level partition markers.
func splitPartitions(body []lang.Stmt) [][]lang.Stmt {
	var parts [][]lang.Stmt
	cur := []lang.Stmt{}
	for _, s := range body {
		if _, ok := s.(*lang.PartitionStmt); ok {
			parts = append(parts, cur)
			cur = []lang.Stmt{}
			continue
		}
		cur = append(cur, s)
	}
	parts = append(parts, cur)
	return parts
}

// EstimateWeight counts operation nodes in a statement — the greedy
// metric the automatic temporal partitioner balances.
func EstimateWeight(s lang.Stmt) int {
	switch st := s.(type) {
	case *lang.DeclStmt:
		return 1 + exprWeight(st.Init)
	case *lang.AssignStmt:
		return 1 + exprWeight(st.Expr)
	case *lang.StoreStmt:
		return 1 + exprWeight(st.Index) + exprWeight(st.Expr)
	case *lang.IfStmt:
		w := 1 + exprWeight(st.Cond)
		for _, sub := range st.Then {
			w += EstimateWeight(sub)
		}
		for _, sub := range st.Else {
			w += EstimateWeight(sub)
		}
		return w
	case *lang.WhileStmt:
		w := 1 + exprWeight(st.Cond)
		for _, sub := range st.Body {
			w += EstimateWeight(sub)
		}
		return w
	case *lang.ForStmt:
		w := 1 + exprWeight(st.Cond)
		if st.Init != nil {
			w += EstimateWeight(st.Init)
		}
		if st.Post != nil {
			w += EstimateWeight(st.Post)
		}
		for _, sub := range st.Body {
			w += EstimateWeight(sub)
		}
		return w
	default:
		return 1
	}
}

func exprWeight(e lang.Expr) int {
	switch ex := e.(type) {
	case nil:
		return 0
	case *lang.IntLit:
		return 0
	case *lang.VarRef:
		return 0
	case *lang.IndexExpr:
		return 2 + exprWeight(ex.Index) // load reg + site
	case *lang.UnaryExpr:
		return 1 + exprWeight(ex.X)
	case *lang.BinaryExpr:
		return 1 + exprWeight(ex.L) + exprWeight(ex.R)
	default:
		return 1
	}
}

// autoSplit greedily packs top-level statements into n partitions of
// roughly equal operator weight, preserving order. A split point is only
// legal where no scalar declared before it is referenced after it
// (partitions communicate exclusively through the shared SRAMs). Fewer
// than n partitions result when legal split points are scarce.
func autoSplit(body []lang.Stmt, n int) [][]lang.Stmt {
	if n <= 1 || len(body) <= 1 {
		return [][]lang.Stmt{body}
	}
	allowed := legalSplits(body)
	total := 0
	for _, s := range body {
		total += EstimateWeight(s)
	}
	target := (total + n - 1) / n
	var parts [][]lang.Stmt
	cur := []lang.Stmt{}
	acc := 0
	for i, s := range body {
		w := EstimateWeight(s)
		if len(cur) > 0 && acc+w > target && n-len(parts) > 1 && allowed[i] {
			parts = append(parts, cur)
			cur, acc = []lang.Stmt{}, 0
		}
		cur = append(cur, s)
		acc += w
	}
	parts = append(parts, cur)
	return parts
}

// legalSplits reports, for each index i, whether the body may be cut
// before statement i: the scalars declared by top-level declarations in
// body[:i] must not occur free in body[i:].
func legalSplits(body []lang.Stmt) []bool {
	allowed := make([]bool, len(body))
	declared := map[string]bool{}
	// freeAfter[i] = free scalar names of body[i:].
	freeAfter := make([]map[string]bool, len(body)+1)
	freeAfter[len(body)] = map[string]bool{}
	for i := len(body) - 1; i >= 0; i-- {
		m := map[string]bool{}
		for k := range freeAfter[i+1] {
			m[k] = true
		}
		for k := range freeScalars(body[i]) {
			m[k] = true
		}
		// A top-level declaration bounds its own name for earlier suffixes.
		if d, ok := body[i].(*lang.DeclStmt); ok {
			delete(m, d.Name)
		}
		freeAfter[i] = m
	}
	for i := range body {
		ok := true
		for name := range freeAfter[i] {
			if declared[name] {
				ok = false
				break
			}
		}
		allowed[i] = ok
		if d, isDecl := body[i].(*lang.DeclStmt); isDecl {
			declared[d.Name] = true
		}
	}
	return allowed
}

// freeScalars returns the scalar names a statement references (reads or
// writes) that it does not itself declare.
func freeScalars(s lang.Stmt) map[string]bool {
	free := map[string]bool{}
	var walkStmt func(s lang.Stmt, local map[string]bool)
	var walkExpr func(e lang.Expr, local map[string]bool)
	walkExpr = func(e lang.Expr, local map[string]bool) {
		switch ex := e.(type) {
		case nil:
		case *lang.IntLit:
		case *lang.VarRef:
			if !local[ex.Name] {
				free[ex.Name] = true
			}
		case *lang.IndexExpr:
			walkExpr(ex.Index, local)
		case *lang.UnaryExpr:
			walkExpr(ex.X, local)
		case *lang.BinaryExpr:
			walkExpr(ex.L, local)
			walkExpr(ex.R, local)
		}
	}
	walkStmt = func(s lang.Stmt, local map[string]bool) {
		switch st := s.(type) {
		case *lang.DeclStmt:
			walkExpr(st.Init, local)
			local[st.Name] = true
		case *lang.AssignStmt:
			if !local[st.Name] {
				free[st.Name] = true
			}
			walkExpr(st.Expr, local)
		case *lang.StoreStmt:
			walkExpr(st.Index, local)
			walkExpr(st.Expr, local)
		case *lang.IfStmt:
			walkExpr(st.Cond, local)
			scope := inherit(local)
			for _, sub := range st.Then {
				walkStmt(sub, scope)
			}
			scope = inherit(local)
			for _, sub := range st.Else {
				walkStmt(sub, scope)
			}
		case *lang.WhileStmt:
			walkExpr(st.Cond, local)
			scope := inherit(local)
			for _, sub := range st.Body {
				walkStmt(sub, scope)
			}
		case *lang.ForStmt:
			header := inherit(local)
			if st.Init != nil {
				walkStmt(st.Init, header)
			}
			walkExpr(st.Cond, header)
			if st.Post != nil {
				walkStmt(st.Post, header)
			}
			inner := inherit(header)
			for _, sub := range st.Body {
				walkStmt(sub, inner)
			}
		}
	}
	walkStmt(s, map[string]bool{})
	return free
}

func inherit(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
