package flow_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/rtg"
	"repro/internal/xmlspec"
)

const scaleSrc = `
void scale(int[] a, int[] b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    b[i] = 3 * a[i] + i;
  }
}
`

func scaleSource() flow.Source {
	return flow.Source{
		Name: "scale", Text: scaleSrc, Func: "scale",
		ArraySizes: map[string]int{"a": 8, "b": 8},
		ScalarArgs: map[string]int64{"n": 8},
		Inputs:     map[string][]int64{"a": {5, -3, 12, 7, 0, 1, 2, 3}},
	}
}

func TestDefaultsResolved(t *testing.T) {
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.ClockPeriod != flow.DefaultClockPeriod {
		t.Errorf("ClockPeriod=%v want %v", cfg.ClockPeriod, flow.DefaultClockPeriod)
	}
	if cfg.MaxCycles != flow.DefaultMaxCycles {
		t.Errorf("MaxCycles=%v want %v", cfg.MaxCycles, flow.DefaultMaxCycles)
	}
	if cfg.MaxConfigs != flow.DefaultMaxConfigs {
		t.Errorf("MaxConfigs=%v want %v", cfg.MaxConfigs, flow.DefaultMaxConfigs)
	}
	if cfg.Backend != flow.DefaultBackend {
		t.Errorf("Backend=%q want %q", cfg.Backend, flow.DefaultBackend)
	}
}

// TestRTGObservesFlowDefaults: the controller a default pipeline builds
// carries exactly the flow defaults — rtg has no numeric defaults of
// its own (it rejects unset bounds; see rtg.TestOptionsRequireExplicitBounds).
func TestRTGObservesFlowDefaults(t *testing.T) {
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	o := d.ControllerOptions()
	if o.ClockPeriod != flow.DefaultClockPeriod || o.MaxCycles != flow.DefaultMaxCycles || o.MaxConfigs != flow.DefaultMaxConfigs {
		t.Fatalf("controller options %+v diverge from flow defaults", o)
	}
	// And rtg itself refuses to default.
	if _, err := rtg.NewController(d.Compiled().Design, rtg.Options{}); err == nil {
		t.Fatal("rtg must reject unset bounds; flow is the single defaulter")
	}
}

func TestBackendRegistry(t *testing.T) {
	infos := flow.Backends()
	if len(infos) < 2 || infos[0].Name != "twolevel" || infos[1].Name != "compiled" {
		t.Fatalf("Backends()=%v, want twolevel, then compiled", infos)
	}
	byName := map[string]flow.BackendInfo{}
	for _, bi := range infos {
		if bi.Desc == "" || bi.Kind == "" {
			t.Fatalf("backend %q missing descriptor fields: %+v", bi.Name, bi)
		}
		byName[bi.Name] = bi
	}
	if bi := byName["twolevel"]; bi.Kind != flow.KindEvent || bi.SupportsGang {
		t.Fatalf("twolevel descriptor wrong: %+v", bi)
	}
	if bi, ok := byName["compiled"]; !ok || bi.Kind != flow.KindCycle || !bi.SupportsGang {
		t.Fatalf("compiled descriptor wrong or missing: %+v", byName["compiled"])
	}
	if got, want := flow.BackendNames(), len(infos); len(got) != want || got[0] != "twolevel" {
		t.Fatalf("BackendNames()=%v diverges from Backends()=%v", got, infos)
	}
	// One unified unknown-name error on every lookup path: it names the
	// missing backend and carries the full sorted descriptor catalog.
	_, err := flow.LookupBackend("no-such-kernel")
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("lookup of unknown backend: %v", err)
	}
	for _, bi := range infos {
		want := fmt.Sprintf("%s (%s): %s", bi.Name, bi.Kind, bi.Desc)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-backend error %q missing catalog entry %q", err, want)
		}
	}
	if _, err2 := flow.New(flow.WithBackend("no-such-kernel")); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("pipeline lookup error %v diverges from LookupBackend error %v", err2, err)
	}
	if b, err := flow.LookupBackend(""); err != nil || b.Name != flow.DefaultBackend {
		t.Fatalf("empty name must resolve the default backend, got %v/%v", b.Name, err)
	}
}

// TestRunVerifiesUnderEveryBackend is the acceptance check in miniature:
// the same case passes on every backend, and the backends
// agree on the final memory contents and on each configuration's cycle
// count and final state (the engines are required to be observationally
// equivalent at clock edges).
func TestRunVerifiesUnderEveryBackend(t *testing.T) {
	var ref *flow.SimResult
	refName := ""
	for _, bi := range flow.Backends() {
		name := bi.Name
		p, err := flow.New(flow.WithBackend(name))
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(scaleSource())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.OK() {
			t.Fatalf("%s: failed: %v", name, out.Verdict.Failed())
		}
		for _, run := range out.Sim.Runs {
			if run.Kernel != name {
				t.Errorf("%s: configuration %s ran on kernel %q", name, run.ID, run.Kernel)
			}
		}
		if ref == nil {
			ref, refName = out.Sim, name
			continue
		}
		if !reflect.DeepEqual(out.Sim.Memories, ref.Memories) {
			t.Errorf("%s: memories %v diverge from %s's %v", name, out.Sim.Memories, refName, ref.Memories)
		}
		if len(out.Sim.Runs) != len(ref.Runs) {
			t.Fatalf("%s: %d configurations, %s ran %d", name, len(out.Sim.Runs), refName, len(ref.Runs))
		}
		for i, run := range out.Sim.Runs {
			want := ref.Runs[i]
			if run.ID != want.ID || run.Cycles != want.Cycles || run.FinalState != want.FinalState {
				t.Errorf("%s: configuration %s ran %d cycles to %q, %s: %s ran %d cycles to %q",
					name, run.ID, run.Cycles, run.FinalState, refName, want.ID, want.Cycles, want.FinalState)
			}
		}
	}
	if ref == nil {
		t.Fatal("no backend registered")
	}
}

func TestObserverStreamsStagesAndConfigs(t *testing.T) {
	type ev struct {
		kind  string
		stage flow.StageName
	}
	var seen []ev
	obs := &recordingObserver{
		begin: func(s flow.StageName, name string) { seen = append(seen, ev{"begin", s}) },
		end: func(s flow.StageName, name string, err error, wall time.Duration) {
			if err != nil {
				t.Errorf("stage %s errored: %v", s, err)
			}
			seen = append(seen, ev{"end", s})
		},
		elaborated: func(cfgID string, el *netlist.Elaboration) {
			if el.Sim == nil {
				t.Error("elaboration hook without live simulator")
			}
			seen = append(seen, ev{"cfg-up", ""})
		},
		done: func(run rtg.ConfigRun) {
			if run.Stats.Events == 0 || run.Kernel == "" {
				t.Errorf("config record missing kernel stats: %+v", run)
			}
			seen = append(seen, ev{"cfg-done", ""})
		},
	}
	p, err := flow.New(flow.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(scaleSource())
	if err != nil || !out.OK() {
		t.Fatalf("run: %v %+v", err, out)
	}
	var kinds []string
	for _, e := range seen {
		if e.kind == "begin" || e.kind == "end" {
			kinds = append(kinds, e.kind+":"+string(e.stage))
		} else {
			kinds = append(kinds, e.kind)
		}
	}
	want := []string{
		"begin:compile", "end:compile",
		"begin:elaborate", "end:elaborate",
		"begin:simulate", "cfg-up", "cfg-done", "end:simulate",
		"begin:verify", "end:verify",
	}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("observer sequence\n got %v\nwant %v", kinds, want)
	}
}

type recordingObserver struct {
	flow.BaseObserver
	begin      func(flow.StageName, string)
	end        func(flow.StageName, string, error, time.Duration)
	elaborated func(string, *netlist.Elaboration)
	done       func(rtg.ConfigRun)
}

func (r *recordingObserver) StageBegin(s flow.StageName, name string) { r.begin(s, name) }
func (r *recordingObserver) StageEnd(s flow.StageName, name string, err error, w time.Duration) {
	r.end(s, name, err, w)
}
func (r *recordingObserver) ConfigElaborated(id string, el *netlist.Elaboration) {
	r.elaborated(id, el)
}
func (r *recordingObserver) ConfigDone(run rtg.ConfigRun) { r.done(run) }

func TestWorkDirArtifacts(t *testing.T) {
	dir := t.TempDir()
	p, err := flow.New(flow.WithWorkDir(dir), flow.WithArtifacts(true))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(scaleSource())
	if err != nil || !out.OK() {
		t.Fatalf("run: %v", err)
	}
	for _, label := range []string{"rtg", "dot:rtg", "java:rtg", "mem-in:a"} {
		path, ok := out.Compiled.Artifacts[label]
		if !ok {
			t.Errorf("missing compile artifact %q", label)
			continue
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %q unreadable: %v", label, err)
		}
	}
	if path, ok := out.Sim.Artifacts["mem:b"]; !ok {
		t.Error("missing simulated memory artifact mem:b")
	} else if !strings.HasPrefix(path, filepath.Join(dir, "scale")) {
		t.Errorf("artifact path %q outside case dir", path)
	}
}

func TestIncompleteSimulationYieldsNoVerdict(t *testing.T) {
	p, err := flow.New(flow.WithMaxCycles(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.Completed || out.Verdict != nil || out.OK() {
		t.Fatalf("tiny cycle cap must yield incomplete, verdict-less outcome: %+v", out)
	}
}

func TestContextCancelsPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PrepareContext(ctx, scaleSource()); err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err=%v, want context cancellation", err)
	}
}

func TestVCDObserverDumpsWaveforms(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "waves")
	p, err := flow.New(flow.WithObserver(flow.NewVCDObserver(prefix, nil)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(scaleSource())
	if err != nil || !out.OK() {
		t.Fatalf("run: %v", err)
	}
	matches, err := filepath.Glob(prefix + ".*.vcd")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no VCD dumps under %s (err=%v)", prefix, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil || !strings.Contains(string(data), "$var") {
		t.Fatalf("dump %s not a VCD file: %v", matches[0], err)
	}
}

func TestElaborateDesignFromLoadedBundle(t *testing.T) {
	// Compile to disk, load the bundle back, and simulate it through the
	// design entry point — the hsim path.
	dir := t.TempDir()
	p, err := flow.New(flow.WithWorkDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	src := scaleSource()
	if _, err := p.Compile(src); err != nil {
		t.Fatal(err)
	}
	design, err := xmlspec.LoadDesign(filepath.Join(dir, "scale"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.PrepareDesign(design)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetSeed("a", src.Inputs["a"]); err != nil {
		t.Fatal(err)
	}
	s, err := d.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Completed || len(s.Memories["b"]) != 8 {
		t.Fatalf("sim=%+v", s)
	}
	if s.Memories["b"][1] != 3*(-3)+1 {
		t.Fatalf("b=%v", s.Memories["b"])
	}
}

func TestTranslateDocument(t *testing.T) {
	dp := &xmlspec.Datapath{
		Name: "t", Width: 8,
		Operators: []xmlspec.Operator{
			{ID: "c0", Type: "const", Value: 1},
			{ID: "r0", Type: "reg"},
		},
		Connections: []xmlspec.Connection{{From: "c0.y", To: "r0.d"}},
	}
	doc, err := xmlspec.Marshal(dp)
	if err != nil {
		t.Fatal(err)
	}
	for target, marker := range map[string]string{
		"dot":     "digraph",
		"vhdl":    "entity",
		"verilog": "module",
		"hds":     "[design]",
	} {
		out, err := flow.TranslateDocument(doc, target)
		if err != nil {
			t.Errorf("%s: %v", target, err)
			continue
		}
		if !strings.Contains(out, marker) {
			t.Errorf("%s output lacks %q", target, marker)
		}
	}
	if _, err := flow.TranslateDocument(doc, "java"); err == nil {
		t.Error("datapath-to-java must be rejected")
	}
	if _, err := flow.TranslateDocument([]byte("<mystery/>"), "dot"); err == nil {
		t.Error("unknown root must be rejected")
	}
}

func TestProgressObserverOutput(t *testing.T) {
	var sb strings.Builder
	p, err := flow.New(flow.WithObserver(flow.NewProgressObserver(&sb)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(scaleSource()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "configuration") || !strings.Contains(sb.String(), "kernel=twolevel") {
		t.Fatalf("progress output %q", sb.String())
	}
}

func ExampleBackends() {
	def := flow.Backends()[0]
	fmt.Println(def.Name, def.Kind)
	// Output: twolevel event
}
