package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/hades"
)

func intp(n int) *int { return &n }

func validSpec() *api.ScenarioSpec {
	return &api.ScenarioSpec{
		Name:  "t",
		Seed:  42,
		Cases: 4,
		Mix: []api.MixEntry{
			{Family: "hamming", Params: map[string]api.Dist{"words": {Choice: []int{8, 16}}}},
			{Family: "matmul", Weight: 0.5, Params: map[string]api.Dist{"n": {Const: intp(4)}}},
		},
		Arrival: &api.ArrivalSpec{Kind: api.ArrivalPoisson, Rate: 100},
	}
}

func TestLoadValidSpec(t *testing.T) {
	if _, err := Load(validSpec(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*api.ScenarioSpec)
		want string
	}{
		{"no name", func(s *api.ScenarioSpec) { s.Name = "" }, "needs a name"},
		{"zero cases", func(s *api.ScenarioSpec) { s.Cases = 0 }, "cases"},
		{"too many cases", func(s *api.ScenarioSpec) { s.Cases = MaxCases + 1 }, "cases"},
		{"empty mix", func(s *api.ScenarioSpec) { s.Mix = nil }, "empty mix"},
		{"unknown family", func(s *api.ScenarioSpec) { s.Mix[0].Family = "nope" }, "unknown workload"},
		{"negative weight", func(s *api.ScenarioSpec) { s.Mix[0].Weight = -1 }, "negative weight"},
		{"unknown param", func(s *api.ScenarioSpec) {
			s.Mix[0].Params["zzz"] = api.Dist{Const: intp(1)}
		}, "no parameter"},
		{"const out of range", func(s *api.ScenarioSpec) {
			s.Mix[0].Params["words"] = api.Dist{Const: intp(0)}
		}, "outside"},
		{"uniform out of range", func(s *api.ScenarioSpec) {
			s.Mix[0].Params["words"] = api.Dist{Uniform: &api.IntRange{Min: 0, Max: 8}}
		}, "outside"},
		{"choice out of range", func(s *api.ScenarioSpec) {
			s.Mix[0].Params["words"] = api.Dist{Choice: []int{8, 1 << 30}}
		}, "outside"},
		{"ambiguous dist", func(s *api.ScenarioSpec) {
			s.Mix[0].Params["words"] = api.Dist{Const: intp(8), Choice: []int{8}}
		}, "exactly one"},
		{"bad arrival kind", func(s *api.ScenarioSpec) { s.Arrival = &api.ArrivalSpec{Kind: "weird"} }, "arrival kind"},
		{"deterministic no interval", func(s *api.ScenarioSpec) {
			s.Arrival = &api.ArrivalSpec{Kind: api.ArrivalDeterministic}
		}, "interval_ns"},
		{"gamma no shape", func(s *api.ScenarioSpec) {
			s.Arrival = &api.ArrivalSpec{Kind: api.ArrivalGamma, Rate: 10}
		}, "shape"},
		{"fault rate out of range", func(s *api.ScenarioSpec) {
			s.Faults = &api.FaultPlan{Rate: 1.5}
		}, "rate"},
		{"fault bits out of range", func(s *api.ScenarioSpec) {
			s.Faults = &api.FaultPlan{Rate: 0.1, Bits: 40}
		}, "bits"},
		{"bad policy", func(s *api.ScenarioSpec) {
			s.Faults = &api.FaultPlan{Rate: 0.1, Policy: "hope"}
		}, "policy"},
		{"must-recover on non-erasure mix", func(s *api.ScenarioSpec) {
			s.Faults = &api.FaultPlan{Rate: 0.1, Policy: api.PolicyMustRecover}
		}, "erasure-only"},
	}
	for _, c := range cases {
		spec := validSpec()
		c.mut(spec)
		_, err := Load(spec, nil)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	sc, err := Load(validSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != sc.Spec.Cases {
		t.Fatalf("expanded %d cases, want %d", len(a), sc.Spec.Cases)
	}
	for i := range a {
		if a[i].Family != b[i].Family || a[i].Params != b[i].Params ||
			a[i].ArrivalNS != b[i].ArrivalNS || !reflect.DeepEqual(a[i].Faults, b[i].Faults) {
			t.Fatalf("case %d differs across same-seed expansions: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestExpandSeedChangesDraws(t *testing.T) {
	s1 := validSpec()
	s2 := validSpec()
	s2.Seed = s1.Seed + 1
	s2.Cases = 32
	s1.Cases = 32
	sc1, err := Load(s1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Load(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sc1.Expand()
	b, _ := sc2.Expand()
	same := true
	for i := range a {
		if a[i].Family != b[i].Family || a[i].Params != b[i].Params || a[i].ArrivalNS != b[i].ArrivalNS {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 32-case expansions")
	}
}

func TestArrivalProcesses(t *testing.T) {
	for _, arr := range []*api.ArrivalSpec{
		{Kind: api.ArrivalDeterministic, IntervalNS: 1000},
		{Kind: api.ArrivalPoisson, Rate: 1000},
		{Kind: api.ArrivalGamma, Rate: 1000, Shape: 2},
	} {
		spec := validSpec()
		spec.Arrival = arr
		spec.Cases = 16
		sc, err := Load(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", arr.Kind, err)
		}
		runs, err := sc.Expand()
		if err != nil {
			t.Fatalf("%s: %v", arr.Kind, err)
		}
		last := int64(-1)
		for _, cr := range runs {
			if cr.ArrivalNS < last {
				t.Fatalf("%s: arrival times not monotone: %d after %d", arr.Kind, cr.ArrivalNS, last)
			}
			last = cr.ArrivalNS
		}
		if arr.Kind == api.ArrivalDeterministic && runs[15].ArrivalNS != 16*1000 {
			t.Fatalf("deterministic arrivals: case 15 at %dns, want 16000", runs[15].ArrivalNS)
		}
		if last == 0 {
			t.Fatalf("%s: all arrivals at zero", arr.Kind)
		}
	}
}

func TestMustRecoverFlipsOnlyErasedPositions(t *testing.T) {
	sc, err := LoadExample("erasure-recover.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, cr := range runs {
		if len(cr.Faults) == 0 {
			t.Fatalf("case %d: must-recover planned no flips", cr.Index)
		}
		k := cr.Values["k"]
		epos := cr.Clean.Inputs["epos"]
		for _, f := range cr.Faults {
			flips++
			if f.Array != "in" {
				t.Fatalf("case %d: flip outside stimulus: %+v", cr.Index, f)
			}
			stripe, pos := f.Word/(k+1), f.Word%(k+1)
			if int(epos[stripe]) != pos {
				t.Fatalf("case %d: must-recover flip at survivor position %d of stripe %d (erased: %d)",
					cr.Index, pos, stripe, epos[stripe])
			}
		}
	}
	if flips == 0 {
		t.Fatal("no faults planned across the whole campaign")
	}
}

func TestExampleSpecsLoad(t *testing.T) {
	names := ExampleNames()
	if len(names) < 2 {
		t.Fatalf("expected at least 2 embedded example specs, have %v", names)
	}
	for _, name := range names {
		if _, err := LoadExample(name, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LoadExample("nope.json", nil); err == nil {
		t.Error("unknown example must error")
	}
}

// TestLoadRejectsOutOfRangeWidth pins the spec-level width check: a
// width outside [0, hades.MaxWidth] is a load error, so a campaign
// never reaches elaboration with a width the kernel cannot carry.
func TestLoadRejectsOutOfRangeWidth(t *testing.T) {
	for _, w := range []int{-1, hades.MaxWidth + 1, 100} {
		spec := validSpec()
		spec.Width = w
		if _, err := Load(spec, nil); err == nil || !strings.Contains(err.Error(), "width") {
			t.Errorf("width %d: err=%v", w, err)
		}
	}
	for _, w := range []int{0, 16, hades.MaxWidth} {
		spec := validSpec()
		spec.Width = w
		if _, err := Load(spec, nil); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}
