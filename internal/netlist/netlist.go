// Package netlist elaborates a datapath/FSM pair from the XML dialects
// into a live hades component graph — the counterpart of the paper's
// "to hds" translation followed by Hades design loading.
package netlist

import (
	"fmt"
	"strings"

	"repro/internal/fsmsim"
	"repro/internal/hades"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// Options tunes elaboration.
type Options struct {
	Registry *operators.Registry // nil: operators.DefaultRegistry()
	// InitData provides initial contents for ram/rom/stim instances,
	// keyed by operator id. For rams bound to RTG shared memories the
	// reconfiguration controller fills this from the shared store.
	InitData map[string][]int64
	// Reset, when non-nil, is wired to the FSM (registers are controlled
	// purely through enables, as the compiler generates them).
	Reset *hades.Signal
}

// Elaboration is a live configuration: every component instantiated and
// wired, the FSM bound, and the memory/port structures exposed for the
// verification flow.
type Elaboration struct {
	Sim        *hades.Simulator
	Clk        *hades.Signal
	Machine    *fsmsim.Machine
	Components map[string]hades.Reactor
	RAMs       map[string]*operators.RAM  // by operator id
	Shared     map[string]*operators.RAM  // by RTG shared-memory ref
	Sinks      map[string]*operators.Sink // by operator id
	Controls   map[string]*hades.Signal   // FSM outputs by name ("done" included)
	Statuses   map[string]*hades.Signal   // status lines by name
	Wires      map[string]*hades.Signal   // driver endpoint -> signal
	Done       *hades.Signal              // Controls["done"] when declared

	// Replay support: the components in elaboration order with the seed
	// data each was built with, the lazily created ground signal, and
	// the clock/watchdog RunToCompletion reuses across replay rounds.
	inits []compInit
	gnd   *hades.Signal
	clock *hades.Clock
	dog   *hades.Watchdog
}

// compInit remembers one component's elaboration-order position and the
// initial contents it was built with, so Reset can reseed it.
type compInit struct {
	id   string
	comp hades.Reactor
	init []int64
}

// tieDefaults lists input ports that may legitimately be left undriven
// and are tied to constant zero, per operator type (a read-only RAM has
// no writer; a sink may have no enable).
var tieDefaults = map[string][]string{
	"ram":  {"we", "din"},
	"sink": {"en"},
}

// Elaborate builds the component graph for one configuration on sim,
// clocked by clk.
func Elaborate(sim *hades.Simulator, clk *hades.Signal, dp *xmlspec.Datapath,
	fsm *xmlspec.FSM, opts Options) (*Elaboration, error) {

	reg := opts.Registry
	if reg == nil {
		reg = operators.DefaultRegistry()
	}
	if err := xmlspec.ValidateDatapath(dp, reg); err != nil {
		return nil, err
	}
	if err := xmlspec.ValidateFSM(fsm); err != nil {
		return nil, err
	}

	el := &Elaboration{
		Sim:        sim,
		Clk:        clk,
		Components: map[string]hades.Reactor{},
		RAMs:       map[string]*operators.RAM{},
		Shared:     map[string]*operators.RAM{},
		Sinks:      map[string]*operators.Sink{},
		Controls:   map[string]*hades.Signal{},
		Statuses:   map[string]*hades.Signal{},
		Wires:      map[string]*hades.Signal{},
	}

	// Pass 1: create one signal per operator output port.
	type pending struct {
		op    *xmlspec.Operator
		spec  *operators.Spec
		param operators.Params
		ports []operators.PortSpec
	}
	var todo []pending
	for i := range dp.Operators {
		op := &dp.Operators[i]
		spec, _ := reg.Lookup(op.Type)
		param := xmlspec.ParamsOf(op, dp.Width)
		if data, ok := opts.InitData[op.ID]; ok {
			param.Init = data
		}
		ports := spec.Ports(param)
		for _, ps := range ports {
			if ps.Dir == operators.Out {
				ep := op.ID + "." + ps.Name
				el.Wires[ep] = sim.NewSignal(dp.Name+"."+ep, ps.Width)
			}
		}
		todo = append(todo, pending{op: op, spec: spec, param: param, ports: ports})
	}

	// Control lines: one signal per FSM output; datapath controls map
	// them onto operator input ports. FSM outputs without datapath
	// targets (e.g. done) still get signals.
	ctlWidth := map[string]int{}
	for _, c := range dp.Controls {
		ctlWidth[c.Name] = c.ControlWidth()
	}
	for _, out := range fsm.Outputs {
		w := out.SignalWidth()
		if dw, ok := ctlWidth[out.Name]; ok && dw > w {
			w = dw
		}
		el.Controls[out.Name] = sim.NewSignal(dp.Name+".ctl."+out.Name, w)
	}
	for _, c := range dp.Controls {
		if _, ok := el.Controls[c.Name]; !ok {
			return nil, fmt.Errorf("netlist: %s: control %q has no FSM output", dp.Name, c.Name)
		}
	}

	// Sink map for input ports: endpoint -> driving signal.
	drive := map[string]*hades.Signal{}
	for _, cn := range dp.Connections {
		src, ok := el.Wires[cn.From]
		if !ok {
			return nil, fmt.Errorf("netlist: %s: connect from unknown output %q", dp.Name, cn.From)
		}
		drive[cn.To] = src
	}
	for _, c := range dp.Controls {
		for _, to := range c.Targets {
			drive[to.Port] = el.Controls[c.Name]
		}
	}

	// Status lines alias operator outputs.
	for _, st := range dp.Statuses {
		src, ok := el.Wires[st.From]
		if !ok {
			return nil, fmt.Errorf("netlist: %s: status %q from unknown output %q", dp.Name, st.Name, st.From)
		}
		el.Statuses[st.Name] = src
	}

	// Ground for tie-able inputs.
	var gnd *hades.Signal
	ground := func(width int) *hades.Signal {
		if gnd == nil {
			gnd = sim.NewSignal(dp.Name+".gnd", 64)
			sim.Drive(gnd, 0)
		}
		return gnd
	}

	// Pass 2: build components with their connection maps.
	for _, pd := range todo {
		conn := map[string]*hades.Signal{}
		for _, ps := range pd.ports {
			ep := pd.op.ID + "." + ps.Name
			if ps.Dir == operators.Out {
				conn[ps.Name] = el.Wires[ep]
				continue
			}
			if ps.Name == "clk" {
				conn["clk"] = clk
				continue
			}
			if sig, ok := drive[ep]; ok {
				conn[ps.Name] = sig
				continue
			}
			if tieable(pd.op.Type, ps.Name) {
				conn[ps.Name] = ground(ps.Width)
			}
			// reg en/rst stay nil (optional in the operator model).
		}
		comp, err := pd.spec.Build(sim, pd.op.ID, pd.param, conn)
		if err != nil {
			return nil, fmt.Errorf("netlist: %s: %w", dp.Name, err)
		}
		el.Components[pd.op.ID] = comp
		switch c := comp.(type) {
		case *operators.RAM:
			el.RAMs[pd.op.ID] = c
			if pd.op.Ref != "" {
				el.Shared[pd.op.Ref] = c
			}
		case *operators.Sink:
			el.Sinks[pd.op.ID] = c
		}
	}

	// Bind the FSM.
	inputs := map[string]*hades.Signal{}
	for _, in := range fsm.Inputs {
		sig, ok := el.Statuses[in.Name]
		if !ok {
			return nil, fmt.Errorf("netlist: %s: FSM input %q has no datapath status", dp.Name, in.Name)
		}
		inputs[in.Name] = sig
	}
	m, err := fsmsim.New(sim, fsm, clk, opts.Reset, inputs, el.Controls)
	if err != nil {
		return nil, err
	}
	el.Machine = m
	el.Done = el.Controls["done"]

	// Time-zero initialisation: with the FSM's initial-state controls
	// driven, evaluate every component once so the combinational network
	// settles from the power-on register/constant/control values before
	// the first clock edge (clocked components see no edge and ignore
	// the call).
	for _, pd := range todo {
		el.Components[pd.op.ID].React(sim)
	}

	// Arm replay: remember each component's seed data in elaboration
	// order, and mark the simulator so Reset can detach everything
	// attached after this point (clock, watchdog, probes, VCD taps).
	for _, pd := range todo {
		el.inits = append(el.inits, compInit{id: pd.op.ID, comp: el.Components[pd.op.ID], init: pd.param.Init})
	}
	el.gnd = gnd
	sim.NoteElaboration()
	sim.Mark()
	return el, nil
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
	for _, ci := range el.inits {
		data, ok := init[ci.id]
		if !ok {
			data = ci.init
		}
		if r, replayable := ci.comp.(operators.Replayable); replayable {
			r.ResetState(sim, data)
		}
	}
	el.Machine.Reset(sim)
	for _, ci := range el.inits {
		ci.comp.React(sim)
	}
}

func tieable(typ, port string) bool {
	for _, p := range tieDefaults[typ] {
		if p == port {
			return true
		}
	}
	return false
}

// ProbeAll attaches probes to every wire whose endpoint matches one of
// the given prefixes (empty list = all wires) and returns them keyed by
// endpoint — the infrastructure's "inclusion of probes" facility.
func (el *Elaboration) ProbeAll(maxHistory int, prefixes ...string) map[string]*hades.Probe {
	probes := map[string]*hades.Probe{}
	for ep, sig := range el.Wires {
		if len(prefixes) > 0 && !hasAnyPrefix(ep, prefixes) {
			continue
		}
		probes[ep] = hades.NewProbe(sig, maxHistory)
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
