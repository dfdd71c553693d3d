package flow_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/flow"
	"repro/internal/lang"
	"repro/internal/workloads"
)

// suiteSource builds a family's suite preset as a flow source.
func suiteSource(t *testing.T, family string) flow.Source {
	t.Helper()
	w, err := workloads.Default.Lookup(family)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Presets() {
		if p.Suite {
			c, err := workloads.BuildWorkload(w, p.Values.Clone())
			if err != nil {
				t.Fatal(err)
			}
			c.Name = p.Name
			return workloadSource(c)
		}
	}
	t.Fatalf("family %q has no suite preset", family)
	return flow.Source{}
}

// TestTableILoCGolden pins the Table I line counts of every family's
// suite preset, partition by partition, so rendering them on demand
// cannot change a Table I column.
func TestTableILoCGolden(t *testing.T) {
	golden := map[string][]flow.PartitionLoC{
		"erasure": {{ID: "cfg1", XMLDatapathLoC: 167, XMLFSMLoC: 146, JavaFSMLoC: 244}},
		"fdct1":   {{ID: "cfg1", XMLDatapathLoC: 1239, XMLFSMLoC: 408, JavaFSMLoC: 666}},
		"fdct2": {
			{ID: "cfg1", XMLDatapathLoC: 631, XMLFSMLoC: 202, JavaFSMLoC: 341},
			{ID: "cfg2", XMLDatapathLoC: 628, XMLFSMLoC: 202, JavaFSMLoC: 341},
		},
		"fir":     {{ID: "cfg1", XMLDatapathLoC: 97, XMLFSMLoC: 84, JavaFSMLoC: 147}},
		"hamming": {{ID: "cfg1", XMLDatapathLoC: 269, XMLFSMLoC: 137, JavaFSMLoC: 245}},
		"matmul":  {{ID: "cfg1", XMLDatapathLoC: 126, XMLFSMLoC: 106, JavaFSMLoC: 181}},
		"newton":  {{ID: "cfg1", XMLDatapathLoC: 101, XMLFSMLoC: 104, JavaFSMLoC: 175}},
	}
	if len(golden) != len(workloads.Names()) {
		t.Fatalf("golden covers %d families, the registry has %d: %v", len(golden), len(workloads.Names()), workloads.Names())
	}
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range workloads.Names() {
		c, err := p.Compile(suiteSource(t, family))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.LoC()
		if err != nil {
			t.Fatal(err)
		}
		want := golden[family]
		if len(got) != len(want) || len(got) != len(c.Partitions) {
			t.Fatalf("%s: %d LoC rows for %d partitions, want %d", family, len(got), len(c.Partitions), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s partition %d: LoC %+v, want %+v", family, i, got[i], want[i])
			}
		}
	}
}

// TestCompileRendersNoViews pins the compile stage to the front end's
// cost: Pipeline.Compile may allocate at most 16 more times than
// lang.Parse plus compiler.Compile on the same source, so it renders
// no XML or Java views a caller did not ask for. Race builds drop
// sync.Pool puts at random, and fmt pools its printers, so there the
// counts move by 10-30 a run; the race bound is half of what rendering
// the views allocates, which that noise cannot reach and rendered views
// still cross.
func TestCompileRendersNoViews(t *testing.T) {
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"hamming", "fdct1"} {
		src := suiteSource(t, family)
		var c *flow.Compiled
		compile := testing.AllocsPerRun(5, func() {
			if c, err = p.Compile(src); err != nil {
				t.Fatal(err)
			}
		})
		frontEnd := testing.AllocsPerRun(5, func() {
			prog, err := lang.Parse(src.Text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := compiler.Compile(prog, src.Func, compiler.Config{
				ArraySizes: src.ArraySizes, ScalarArgs: src.ScalarArgs,
			}); err != nil {
				t.Fatal(err)
			}
		})
		slack := 16.0
		if raceBuild {
			slack = testing.AllocsPerRun(1, func() {
				if _, err := c.LoC(); err != nil {
					t.Fatal(err)
				}
			}) / 2
		}
		t.Logf("%s: Compile %.0f allocations, lang.Parse + compiler.Compile %.0f (slack %.0f)", family, compile, frontEnd, slack)
		if compile > frontEnd+slack {
			t.Errorf("%s: Compile allocated %.0f times, more than lang.Parse + compiler.Compile (%.0f) + %.0f",
				family, compile, frontEnd, slack)
		}
	}
}
