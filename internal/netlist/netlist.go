// Package netlist resolves a datapath/FSM pair from the XML dialects
// into a Plan once, and elaborates plans into live hades component
// graphs — the counterpart of the paper's "to hds" translation followed
// by Hades design loading.
package netlist

import (
	"fmt"
	"strings"

	"repro/internal/fsmsim"
	"repro/internal/hades"
	"repro/internal/operators"
)

// Elaboration is a live configuration: every component of a Plan
// instantiated and wired, the FSM bound, one signal per plan slot.
type Elaboration struct {
	Sim     *hades.Simulator
	Clk     *hades.Signal
	Machine *fsmsim.Machine
	Done    *hades.Signal // the "done" control when declared

	plan  *Plan
	sigs  []*hades.Signal // per plan slot
	comps []hades.Reactor // per plan operator
	// Replay support: the seed data each component was built with, the
	// lazily created ground signal, and the clock/watchdog
	// RunToCompletion reuses across replay rounds.
	seeds [][]int64
	gnd   *hades.Signal
	clock *hades.Clock
	dog   *hades.Watchdog
}

// Elaborate builds a plan's component graph on sim, clocked by clk —
// the paper's "to hds" load of one configuration. init seeds ram, rom
// and stim contents by operator id; for rams bound to RTG shared
// memories the reconfiguration controller fills it from the shared
// store.
func Elaborate(sim *hades.Simulator, clk *hades.Signal, p *Plan, init map[string][]int64) (*Elaboration, error) {
	el := &Elaboration{
		Sim:   sim,
		Clk:   clk,
		plan:  p,
		sigs:  make([]*hades.Signal, len(p.slots)),
		comps: make([]hades.Reactor, len(p.ops)),
		seeds: make([][]int64, len(p.ops)),
	}
	for i := range p.slots {
		el.sigs[i] = sim.NewSignal(p.slots[i].sig, p.slots[i].Width)
	}

	// Build each component with its signals in port order.
	var sigs []*hades.Signal
	for i := range p.ops {
		op := &p.ops[i]
		sigs = sigs[:0]
		for _, d := range op.Pins {
			switch d {
			case Open:
				sigs = append(sigs, nil)
			case Clock:
				sigs = append(sigs, clk)
			case Ground:
				if el.gnd == nil {
					el.gnd = sim.NewSignal(p.name+".gnd", 64)
					sim.Drive(el.gnd, 0)
				}
				sigs = append(sigs, el.gnd)
			default:
				sigs = append(sigs, el.sigs[d])
			}
		}
		param := op.Params
		param.Init = init[op.ID]
		comp, err := op.Spec.Build(sim, op.ID, param, sigs)
		if err != nil {
			return nil, fmt.Errorf("netlist: %s: %w", p.name, err)
		}
		el.comps[i], el.seeds[i] = comp, param.Init
	}

	// Bind the FSM to its status and control slots.
	tab := p.fsm
	inputs := make([]*hades.Signal, len(p.statuses))
	for i, s := range p.statuses {
		inputs[i] = el.sigs[s]
	}
	m, err := fsmsim.New(sim, tab, clk, inputs, el.sigs[p.controls:p.controls+len(tab.Outputs)])
	if err != nil {
		return nil, err
	}
	el.Machine = m
	if p.done >= 0 {
		el.Done = el.sigs[p.done]
	}

	// Time-zero initialisation: with the FSM's initial-state controls
	// driven, evaluate every component once so the combinational network
	// settles from the power-on register/constant/control values before
	// the first clock edge (clocked components see no edge and ignore
	// the call).
	for _, comp := range el.comps {
		comp.React(sim)
	}

	// Arm replay: mark the simulator so Reset can detach everything
	// attached after this point (clock, watchdog, probes, VCD taps).
	sim.NoteElaboration()
	sim.Mark()
	return el, nil
}

// Plan returns the plan the elaboration was built from.
func (el *Elaboration) Plan() *Plan { return el.plan }

// Signal returns the signal of the named slot ("op.port" for an
// operator output, "ctl.<name>" for an FSM output), nil when the plan
// has no such slot.
func (el *Elaboration) Signal(name string) *hades.Signal {
	for i := range el.plan.slots {
		if el.plan.slots[i].Name == name {
			return el.sigs[i]
		}
	}
	return nil
}

// Components returns the live components in plan operator order. The
// slice is shared: read it, do not modify it.
func (el *Elaboration) Components() []hades.Reactor { return el.comps }

// Component returns the live component of the operator with the given
// id, nil when the plan has none.
func (el *Elaboration) Component(id string) hades.Reactor {
	for i := range el.plan.ops {
		if el.plan.ops[i].ID == id {
			return el.comps[i]
		}
	}
	return nil
}

// Reset rewinds a live elaboration so the same wired component graph
// can be run again without rebuilding — the replay half of the
// reconfiguration cache. The simulator is reset (events, time, per-run
// stats, signal definedness), then the elaboration-time initialisation
// is replayed in the original order: power-on drives re-asserted,
// memories and stimuli reseeded, the FSM rewound to its initial state,
// sinks cleared, and the combinational settle pass re-run. init
// overrides a component's seed contents by operator id (the
// reconfiguration controller passes the current shared-store images);
// components absent from init reload the contents they were originally
// elaborated with.
//
// After Reset the elaboration is bit-for-bit in the state a fresh
// Elaborate with the same seeds would produce, which
// rtg.TestReplayMatchesFreshElaboration pins.
func (el *Elaboration) Reset(init map[string][]int64) {
	sim := el.Sim
	sim.Reset()
	if el.gnd != nil {
		sim.Drive(el.gnd, 0)
	}
	for i, comp := range el.comps {
		data, ok := init[el.plan.ops[i].ID]
		if !ok {
			data = el.seeds[i]
		}
		if r, replayable := comp.(operators.Replayable); replayable {
			r.ResetState(sim, data)
		}
	}
	el.Machine.Reset(sim)
	for _, comp := range el.comps {
		comp.React(sim)
	}
}

// ProbeAll attaches probes to every operator output whose endpoint
// matches one of the given prefixes (empty list = all outputs) and
// returns them keyed by endpoint — the infrastructure's "inclusion of
// probes" facility.
func (el *Elaboration) ProbeAll(maxHistory int, prefixes ...string) map[string]*hades.Probe {
	probes := map[string]*hades.Probe{}
	for i, s := range el.plan.slots[:el.plan.controls] {
		if len(prefixes) > 0 && !hasAnyPrefix(s.Name, prefixes) {
			continue
		}
		probes[s.Name] = hades.NewProbe(el.sigs[i], maxHistory)
	}
	return probes
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// RunResult summarises one configuration execution.
type RunResult struct {
	Cycles     uint64
	EndTime    hades.Time
	Completed  bool // done asserted before the cycle cap
	FinalState string
}

// RunToCompletion drives the elaborated configuration with its clock
// until the FSM asserts done (or reaches a final state), bounded by
// maxCycles. It owns the clock: the caller must not have started one,
// and between successive calls the elaboration must be Reset (the
// replay path), which detaches the previous round's clock and watchdog
// so this call can re-arm the same instances allocation-free.
func (el *Elaboration) RunToCompletion(period hades.Time, maxCycles uint64) (*RunResult, error) {
	limit := hades.Time(int64(maxCycles)*int64(period)) + el.Sim.Now()
	if el.clock == nil || el.clock.Period() != period {
		el.clock = hades.NewClock("clk", el.Clk, period, limit)
	} else {
		el.clock.SetLimit(limit)
	}
	el.clock.Start(el.Sim)
	if el.Done != nil {
		if el.dog == nil {
			el.dog = hades.NewWatchdog("done", el.Done, 1)
		} else {
			el.dog.Rearm()
		}
	}
	end, err := el.Sim.Run(limit)
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		Cycles:     el.Machine.Cycles(),
		EndTime:    end,
		FinalState: el.Machine.CurrentState(),
	}
	stopped, _ := el.Sim.Stopped()
	res.Completed = el.Machine.InFinal() || (el.Done != nil && el.Done.Bool()) || stopped
	return res, nil
}
