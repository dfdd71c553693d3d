package xmlspec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/lang"
	"repro/internal/operators"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
)

// familyDesigns compiles every workload family's suite preset, keyed
// by preset name.
func familyDesigns(tb testing.TB) map[string]*xmlspec.Design {
	tb.Helper()
	out := map[string]*xmlspec.Design{}
	for _, w := range workloads.All() {
		for _, p := range w.Presets() {
			if !p.Suite {
				continue
			}
			c, err := workloads.BuildWorkload(w, p.Values.Clone())
			if err != nil {
				tb.Fatal(err)
			}
			prog, err := lang.Parse(c.Source)
			if err != nil {
				tb.Fatal(err)
			}
			res, err := compiler.Compile(prog, c.Func, compiler.Config{ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs})
			if err != nil {
				tb.Fatal(err)
			}
			out[p.Name] = res.Design
		}
	}
	return out
}

// familyDatapaths returns every suite preset's datapaths in RTG
// configuration order, keyed by preset name.
func familyDatapaths(tb testing.TB) map[string][]*xmlspec.Datapath {
	tb.Helper()
	out := map[string][]*xmlspec.Datapath{}
	for name, d := range familyDesigns(tb) {
		for _, cfg := range d.RTG.Configurations {
			out[name] = append(out[name], d.Datapaths[cfg.Datapath])
		}
	}
	return out
}

// sameVerdict requires the validator and the seed oracle to report the
// same problems, byte for byte.
func sameVerdict(t *testing.T, dp *xmlspec.Datapath, reg *operators.Registry) {
	t.Helper()
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		if _, ok := err.(*xmlspec.ValidationError); !ok {
			t.Fatalf("error %T is not a *ValidationError", err)
		}
		return err.Error()
	}
	got, want := text(xmlspec.ValidateDatapath(dp, reg)), text(xmlspec.ValidateDatapathOracle(dp, reg))
	if got != want {
		t.Fatalf("validator and seed oracle disagree:\n got: %s\nwant: %s", got, want)
	}
}

// addDatapathSeeds seeds a datapath fuzz target with the marshalled
// problem mutations of the xmlspec test fixture and the datapaths of
// every workload family's suite preset.
func addDatapathSeeds(f *testing.F) {
	seeds := xmlspec.ProblemDatapaths()
	for _, dps := range familyDatapaths(f) {
		seeds = append(seeds, dps...)
	}
	for _, dp := range seeds {
		doc, err := xmlspec.Marshal(dp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
}

// FuzzValidateDatapath parses fuzzed bytes as a datapath document and,
// when they parse, requires ValidateDatapath to return the seed
// validator's verdict: the same Error() text, or nil from both. It must
// never panic or hang; hsim and xml2hdl validate datapaths loaded from
// disk through the same function. The seeds are the marshalled
// datapaths of every workload family's suite preset and the problem
// mutations of the xmlspec test fixture. testdata/fuzz/ adds two
// oversized attributes: a mux fan-in of 2^40, whose port list would
// exhaust memory, and ram/rom depths above 2^62, where AddrWidth's 1<<w
// overflows.
func FuzzValidateDatapath(f *testing.F) {
	addDatapathSeeds(f)
	reg := operators.DefaultRegistry()
	f.Fuzz(func(t *testing.T, doc []byte) {
		dp, err := xmlspec.ParseDatapath(doc)
		if err != nil {
			return
		}
		sameVerdict(t, dp, reg)
	})
}

// TestValidateDatapathMatchesOracle runs the differential check on
// seeded random edits of the test fixture and of the family datapaths,
// so the plain test run covers more than the fuzz seeds.
func TestValidateDatapathMatchesOracle(t *testing.T) {
	reg := operators.DefaultRegistry()
	bases := xmlspec.ProblemDatapaths()[:1] // the unmutated fixture
	for _, dps := range familyDatapaths(t) {
		bases = append(bases, dps...)
	}
	r := rand.New(rand.NewSource(1))
	invalid := 0
	for i := 0; i < 4000; i++ {
		base := bases[0]
		if i%4 == 3 {
			base = bases[r.Intn(len(bases))]
		}
		dp := cloneDatapath(base)
		for n := 1 + r.Intn(4); n > 0; n-- {
			mutateDatapath(r, dp)
		}
		sameVerdict(t, dp, reg)
		if xmlspec.ValidateDatapath(dp, reg) != nil {
			invalid++
		}
	}
	if invalid < 1000 {
		t.Fatalf("only %d of 4000 mutations were invalid; the check exercises too few problems", invalid)
	}
}

func cloneDatapath(d *xmlspec.Datapath) *xmlspec.Datapath {
	c := *d
	c.Operators = append([]xmlspec.Operator(nil), d.Operators...)
	c.Connections = append([]xmlspec.Connection(nil), d.Connections...)
	c.Controls = append([]xmlspec.Control(nil), d.Controls...)
	for i := range c.Controls {
		c.Controls[i].Targets = append([]xmlspec.ControlTo(nil), d.Controls[i].Targets...)
	}
	c.Statuses = append([]xmlspec.Status(nil), d.Statuses...)
	return &c
}

// mutateDatapath applies one random edit aimed at a validator check.
func mutateDatapath(r *rand.Rand, d *xmlspec.Datapath) {
	pick := func(s []string) string { return s[r.Intn(len(s))] }
	width := func() int { return []int{-1, 0, 1, 8, 64, 65}[r.Intn(6)] }
	types := []string{"const", "add", "lt", "reg", "mux", "ram", "rom", "stim", "sink", "lnot", "b2i", "frob"}
	ports := []string{"a", "b", "y", "d", "q", "en", "rst", "clk", "in0", "in1", "in2", "sel", "addr", "dout", "zz"}
	inst := func() string {
		if len(d.Operators) == 0 || r.Intn(8) == 0 {
			return "nope"
		}
		return d.Operators[r.Intn(len(d.Operators))].ID
	}
	ep := func() string {
		switch r.Intn(10) {
		case 0:
			return pick([]string{"bare", "x.", ".y", "", "a.b.c", "."})
		case 1, 2:
			if len(d.Connections) > 0 {
				cn := d.Connections[r.Intn(len(d.Connections))]
				return pick([]string{cn.From, cn.To})
			}
		}
		return inst() + "." + pick(ports)
	}
	op := func() *xmlspec.Operator {
		if len(d.Operators) == 0 {
			d.Operators = append(d.Operators, xmlspec.Operator{ID: "fresh", Type: "add"})
		}
		return &d.Operators[r.Intn(len(d.Operators))]
	}
	switch r.Intn(15) {
	case 0:
		d.Width = width()
	case 1:
		op().ID = pick([]string{"", inst(), fmt.Sprintf("n%d", r.Intn(4))})
	case 2:
		op().Type = pick(types)
	case 3:
		o := op()
		o.Type, o.Inputs = "mux", r.Intn(len(d.Connections)+4)-1
	case 4:
		op().Width = width()
	case 5:
		d.Operators = append(d.Operators, xmlspec.Operator{ID: fmt.Sprintf("n%d", r.Intn(4)), Type: pick(types), Inputs: r.Intn(4), Depth: r.Intn(9)})
	case 6:
		if len(d.Connections) > 0 {
			d.Connections[r.Intn(len(d.Connections))].From = ep()
		}
	case 7:
		if len(d.Connections) > 0 {
			d.Connections[r.Intn(len(d.Connections))].To = ep()
		}
	case 8:
		d.Connections = append(d.Connections, xmlspec.Connection{From: ep(), To: ep()})
	case 9:
		if len(d.Connections) > 0 {
			i := r.Intn(len(d.Connections))
			d.Connections = append(d.Connections[:i], d.Connections[i+1:]...)
		}
	case 10:
		if len(d.Controls) > 0 {
			d.Controls[r.Intn(len(d.Controls))].Targets = nil
		}
	case 11:
		name := fmt.Sprintf("ctl%d", r.Intn(3))
		if len(d.Controls) > 0 && r.Intn(2) == 0 {
			name = d.Controls[r.Intn(len(d.Controls))].Name
		}
		d.Controls = append(d.Controls, xmlspec.Control{Name: name, Width: width(),
			Targets: []xmlspec.ControlTo{{Port: ep()}, {Port: ep()}}[:r.Intn(3)]})
	case 12:
		if len(d.Controls) > 0 {
			c := &d.Controls[r.Intn(len(d.Controls))]
			c.Targets = append(c.Targets, xmlspec.ControlTo{Port: ep()})
		}
	case 13:
		name := fmt.Sprintf("st%d", r.Intn(3))
		if len(d.Statuses) > 0 && r.Intn(2) == 0 {
			name = d.Statuses[r.Intn(len(d.Statuses))].Name
		}
		d.Statuses = append(d.Statuses, xmlspec.Status{Name: name, Width: width(), From: ep()})
	case 14:
		if len(d.Statuses) > 0 {
			d.Statuses[r.Intn(len(d.Statuses))].From = ep()
		}
	}
}

// TestValidateDatapathAllocs pins the validator's allocations on the
// FDCT1 datapath (hundreds of operators and connections) to at most
// two per operator plus a constant: the port table and the driven-port
// record must not allocate per endpoint.
func TestValidateDatapathAllocs(t *testing.T) {
	dp := familyDatapaths(t)["fdct1"][0]
	reg := operators.DefaultRegistry()
	if err := xmlspec.ValidateDatapath(dp, reg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := xmlspec.ValidateDatapath(dp, reg); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(2*len(dp.Operators) + 32)
	t.Logf("%d operators, %d connections: %.0f allocations (limit %.0f)",
		len(dp.Operators), len(dp.Connections), allocs, limit)
	if allocs > limit {
		t.Fatalf("ValidateDatapath allocated %.0f times on %d operators, want at most %.0f",
			allocs, len(dp.Operators), limit)
	}
}
