package xmlspec_test

import (
	"strings"
	"testing"

	"repro/internal/fsmsim"
	"repro/internal/xmlspec"
)

// FuzzParseFSM parses fuzzed bytes as an FSM document and, when they
// parse and validate, resolves the FSM into an fsmsim table: the chain
// returns a table or an error and never panics or hangs. hsim loads
// fsm.xml documents from disk through the same three calls. The seeds
// are the marshalled FSMs of every workload family's suite preset and
// two guards nested fsmsim.MaxNesting and MaxNesting+1 levels deep.
func FuzzParseFSM(f *testing.F) {
	add := func(fsm *xmlspec.FSM) {
		doc, err := xmlspec.Marshal(fsm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, d := range familyDesigns(f) {
		for _, cfg := range d.RTG.Configurations {
			add(d.FSMs[cfg.FSM])
		}
	}
	for _, n := range []int{fsmsim.MaxNesting, fsmsim.MaxNesting + 1} {
		guard := strings.Repeat("(", n) + "go" + strings.Repeat(")", n)
		add(&xmlspec.FSM{Name: "deep",
			Inputs: []xmlspec.FSMSignal{{Name: "go", Width: 1}},
			States: []xmlspec.State{
				{Name: "s", Initial: true, Transitions: []xmlspec.Transition{{Cond: guard, Next: "f"}, {Next: "s"}}},
				{Name: "f", Final: true},
			}})
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		fsm, err := xmlspec.ParseFSM(doc)
		if err != nil || xmlspec.ValidateFSM(fsm) != nil {
			return
		}
		if tab, err := fsmsim.NewTable(fsm); tab == nil && err == nil {
			t.Fatal("NewTable returned neither a table nor an error")
		}
	})
}
