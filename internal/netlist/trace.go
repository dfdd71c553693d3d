package netlist

import "repro/internal/hades"

// EdgeSample is one signal's value at a clock edge: the raw (masked)
// word plus whether the signal was defined.
type EdgeSample struct {
	Val   uint64
	Valid bool
}

// EdgeTrace samples every slot of the plan — each operator output and
// FSM output — at each rising clock edge: the event-kernel counterpart
// of the cycle engine's per-edge trace, keyed identically and in the
// same plan slot order, so traces from both engines compare row by row.
//
// The tap listens on the clock and samples in the edge's own delta:
// clocked components publish their edge updates one delta later (Set
// with zero delay), so every sampled value is the pre-edge state of the
// net, independent of listener order.
type EdgeTrace struct {
	keys []string
	sigs []*hades.Signal
	rows [][]EdgeSample
}

// AttachEdgeTrace taps the elaboration's clock with an edge trace.
// Attach after elaboration (and re-attach after Reset: like probes and
// VCD taps, the listener is detached by the replay rewind). One row is
// recorded per rising edge.
func (el *Elaboration) AttachEdgeTrace() *EdgeTrace {
	tr := &EdgeTrace{sigs: el.sigs}
	for _, s := range el.plan.slots {
		tr.keys = append(tr.keys, s.Name)
	}
	clk := el.Clk
	el.Clk.Listen(&hades.ReactorFunc{Label: "edge-trace", Fn: func(sim *hades.Simulator) {
		if !clk.Bool() {
			return
		}
		row := make([]EdgeSample, len(tr.sigs))
		for i, sig := range tr.sigs {
			row[i] = EdgeSample{Val: sig.Uint(), Valid: sig.Valid()}
		}
		tr.rows = append(tr.rows, row)
	}})
	return tr
}

// Keys returns the sampled signal names in row order.
func (tr *EdgeTrace) Keys() []string { return tr.keys }

// Rows returns the recorded trace: one row per rising clock edge, one
// EdgeSample per key.
func (tr *EdgeTrace) Rows() [][]EdgeSample { return tr.rows }
