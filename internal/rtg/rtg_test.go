package rtg

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// mapLoopConfig builds a datapath/FSM pair computing, over N elements,
//
//	dst[i] = src[i] <op> k
//
// with a two-state (CHECK/BODY) loop FSM, the control style the compiler
// generates: the body state is only entered when the guard holds, so no
// spurious trailing write occurs.
func mapLoopConfig(name, srcRef, dstRef, op string, k int64, n int64) (*xmlspec.Datapath, *xmlspec.FSM) {
	dp := &xmlspec.Datapath{
		Name:  name,
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "r_i", Type: "reg"},
			{ID: "c1", Type: "const", Value: 1},
			{ID: "ck", Type: "const", Value: k},
			{ID: "cn", Type: "const", Value: n},
			{ID: "inc", Type: "add"},
			{ID: "lt0", Type: "lt"},
			{ID: "f0", Type: op},
			{ID: "m_src", Type: "ram", Depth: int(n), Ref: srcRef},
			{ID: "m_dst", Type: "ram", Depth: int(n), Ref: dstRef},
		},
		Connections: []xmlspec.Connection{
			{From: "r_i.q", To: "inc.a"},
			{From: "c1.y", To: "inc.b"},
			{From: "inc.y", To: "r_i.d"},
			{From: "r_i.q", To: "lt0.a"},
			{From: "cn.y", To: "lt0.b"},
			{From: "r_i.q", To: "m_src.addr"},
			{From: "r_i.q", To: "m_dst.addr"},
			{From: "m_src.dout", To: "f0.a"},
			{From: "ck.y", To: "f0.b"},
			{From: "f0.y", To: "m_dst.din"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_i", Targets: []xmlspec.ControlTo{{Port: "r_i.en"}}},
			{Name: "we", Targets: []xmlspec.ControlTo{{Port: "m_dst.we"}}},
		},
		Statuses: []xmlspec.Status{{Name: "i_lt_n", From: "lt0.y"}},
	}
	fsm := &xmlspec.FSM{
		Name:    name + "_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "i_lt_n"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_i"}, {Name: "we"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "CHECK", Initial: true,
				Transitions: []xmlspec.Transition{
					{Cond: "i_lt_n", Next: "BODY"},
					{Next: "END"},
				},
			},
			{
				Name: "BODY",
				Assigns: []xmlspec.Assign{
					{Signal: "en_i", Value: 1},
					{Signal: "we", Value: 1},
				},
				Transitions: []xmlspec.Transition{{Next: "CHECK"}},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return dp, fsm
}

// twoPartitionDesign: cfg1 computes mb = ma*2, cfg2 computes mc = mb+1.
func twoPartitionDesign(n int64) *xmlspec.Design {
	d := xmlspec.NewDesign(&xmlspec.RTG{
		Name:  "pipe",
		Start: "cfg1",
		Memories: []xmlspec.SharedMemory{
			{ID: "ma", Depth: int(n)},
			{ID: "mb", Depth: int(n)},
			{ID: "mc", Depth: int(n)},
		},
		Transitions: []xmlspec.RTGTransition{{From: "cfg1", To: "cfg2", On: "done"}},
	})
	dp1, f1 := mapLoopConfig("p1", "ma", "mb", "mul", 2, n)
	dp2, f2 := mapLoopConfig("p2", "mb", "mc", "add", 1, n)
	d.AddConfiguration("cfg1", dp1, f1)
	d.AddConfiguration("cfg2", dp2, f2)
	return d
}

func TestTwoPartitionPipeline(t *testing.T) {
	const n = 8
	d := twoPartitionDesign(n)
	c, err := NewController(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i + 1)
	}
	if err := c.LoadMemory("ma", in); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Runs) != 2 {
		t.Fatalf("res=%+v", res)
	}
	if res.Runs[0].ID != "cfg1" || res.Runs[1].ID != "cfg2" {
		t.Fatalf("order=%v,%v", res.Runs[0].ID, res.Runs[1].ID)
	}
	mb, err := c.Memory("mb")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := c.Memory("mc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if mb[i] != in[i]*2 {
			t.Errorf("mb[%d]=%d want %d", i, mb[i], in[i]*2)
		}
		if mc[i] != in[i]*2+1 {
			t.Errorf("mc[%d]=%d want %d", i, mc[i], in[i]*2+1)
		}
	}
	// 2 cycles per element + prologue/epilogue slack.
	for _, run := range res.Runs {
		if run.Cycles < 2*n || run.Cycles > 2*n+4 {
			t.Errorf("%s cycles=%d", run.ID, run.Cycles)
		}
	}
	if res.TotalCycles != res.Runs[0].Cycles+res.Runs[1].Cycles {
		t.Error("TotalCycles mismatch")
	}
}

func TestSharedMemoryPersistsOnlyThroughStore(t *testing.T) {
	// Running twice with fresh inputs must not leak previous contents.
	const n = 4
	d := twoPartitionDesign(n)
	c, err := NewController(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadMemory("ma", []int64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(nil); err != nil {
		t.Fatal(err)
	}
	first, _ := c.Memory("mc")
	if err := c.LoadMemory("ma", []int64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(nil); err != nil {
		t.Fatal(err)
	}
	second, _ := c.Memory("mc")
	if first[0] != 21 || second[0] != 3 {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestMemoryReturnsCopy(t *testing.T) {
	d := twoPartitionDesign(4)
	c, err := NewController(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.Memory("ma")
	m[0] = 999
	m2, _ := c.Memory("ma")
	if m2[0] != 0 {
		t.Fatal("Memory must return a copy")
	}
}

func TestLoadMemoryErrors(t *testing.T) {
	d := twoPartitionDesign(4)
	c, _ := NewController(d, testOptions())
	if err := c.LoadMemory("ghost", nil); err == nil {
		t.Fatal("unknown memory must error")
	}
	if _, err := c.Memory("ghost"); err == nil {
		t.Fatal("unknown memory must error")
	}
}

func TestLoadMemoryClearsTail(t *testing.T) {
	d := twoPartitionDesign(4)
	c, _ := NewController(d, testOptions())
	if err := c.LoadMemory("ma", []int64{7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadMemory("ma", []int64{5}); err != nil {
		t.Fatal(err)
	}
	m, _ := c.Memory("ma")
	if m[0] != 5 || m[1] != 0 || m[3] != 0 {
		t.Fatalf("m=%v", m)
	}
}

func TestIncompleteRunReported(t *testing.T) {
	d := twoPartitionDesign(8)
	c, err := NewController(d, func() Options { o := testOptions(); o.MaxCycles = 3; return o }())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("must report incomplete under tiny cycle cap")
	}
	if len(res.Runs) != 1 {
		t.Fatalf("must stop at first incomplete configuration, runs=%d", len(res.Runs))
	}
}

func TestRTGCycleBound(t *testing.T) {
	d := twoPartitionDesign(4)
	// Make the graph loop: cfg2 -> cfg1.
	d.RTG.Transitions = append(d.RTG.Transitions,
		xmlspec.RTGTransition{From: "cfg2", To: "cfg1"})
	c, err := NewController(d, func() Options { o := testOptions(); o.MaxConfigs = 5; return o }())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Execute(nil)
	if err == nil || !strings.Contains(err.Error(), "reconfiguration bound") {
		t.Fatalf("err=%v", err)
	}
}

func TestObserverHookSeesEveryConfiguration(t *testing.T) {
	d := twoPartitionDesign(4)
	var seen []string
	opts := testOptions()
	opts.Observer = func(id string, el *netlist.Elaboration) {
		seen = append(seen, id)
		if el.Machine == nil {
			t.Error("observer got unbound elaboration")
		}
	}
	c, err := NewController(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != "cfg1" || seen[1] != "cfg2" {
		t.Fatalf("seen=%v", seen)
	}
}

func TestMemoryIDs(t *testing.T) {
	d := twoPartitionDesign(4)
	c, _ := NewController(d, testOptions())
	ids := c.MemoryIDs()
	if len(ids) != 3 || ids[0] != "ma" || ids[2] != "mc" {
		t.Fatalf("ids=%v", ids)
	}
}

func TestInvalidDesignRejected(t *testing.T) {
	d := twoPartitionDesign(4)
	d.RTG.Start = "nope"
	if _, err := NewController(d, testOptions()); err == nil {
		t.Fatal("invalid design must be rejected")
	}
}

// TestSharedMemoryDepthBounded: a shared memory deeper than
// operators.MaxDepth fails the controller before the store allocates it.
func TestSharedMemoryDepthBounded(t *testing.T) {
	for _, depth := range []int{operators.MaxDepth + 1, 1 << 62} {
		d := twoPartitionDesign(4)
		d.RTG.Memories[0].Depth = depth
		_, err := NewController(d, testOptions())
		want := fmt.Sprintf(`memory "ma" needs a depth in [1, 16777216], has %d`, depth)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("depth %d: err=%v, want %q", depth, err, want)
		}
	}
}

// testOptions supplies the explicit bounds the controller requires —
// generous enough never to bind in these tests. It intentionally does
// NOT claim to be the flow defaults: the canonical values live only in
// internal/flow (an import cycle for this in-package test), and
// flow_test.TestRTGObservesFlowDefaults checks that a flow-built
// controller carries them.
func testOptions() Options {
	return Options{ClockPeriod: 10, MaxCycles: 10_000_000, MaxConfigs: 1024}
}

func TestOptionsRequireExplicitBounds(t *testing.T) {
	d := twoPartitionDesign(4)
	for name, opts := range map[string]Options{
		"zero":        {},
		"no-period":   {MaxCycles: 1000, MaxConfigs: 4},
		"no-cycles":   {ClockPeriod: 10, MaxConfigs: 4},
		"no-configs":  {ClockPeriod: 10, MaxCycles: 1000},
		"neg-period":  {ClockPeriod: -1, MaxCycles: 1000, MaxConfigs: 4},
		"neg-configs": {ClockPeriod: 10, MaxCycles: 1000, MaxConfigs: -2},
	} {
		if _, err := NewController(d, opts); err == nil {
			t.Errorf("%s: underspecified options must be rejected", name)
		} else if !strings.Contains(err.Error(), "internal/flow") {
			t.Errorf("%s: error must point at the flow defaults, got %v", name, err)
		}
	}
}

func TestEffectiveOptionsExposed(t *testing.T) {
	d := twoPartitionDesign(4)
	c, err := NewController(d, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := c.Options()
	want := testOptions()
	if o.ClockPeriod != want.ClockPeriod || o.MaxCycles != want.MaxCycles || o.MaxConfigs != want.MaxConfigs {
		t.Fatalf("effective options %+v, want the values passed in", o)
	}
	if o.Compiled {
		t.Fatal("the event kernel must be the default engine")
	}
}

func TestAfterConfigStreamsRuns(t *testing.T) {
	d := twoPartitionDesign(4)
	opts := testOptions()
	var streamed []string
	opts.AfterConfig = func(run ConfigRun) {
		streamed = append(streamed, run.ID)
		if run.Kernel == "" || run.Stats.Events == 0 || !run.Completed {
			t.Errorf("run %s missing kernel/stats: %+v", run.ID, run)
		}
	}
	c, err := NewController(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadMemory("ma", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Runs) || streamed[0] != "cfg1" || streamed[1] != "cfg2" {
		t.Fatalf("streamed=%v runs=%d", streamed, len(res.Runs))
	}
}
