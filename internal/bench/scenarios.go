package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/scenario"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
)

// Scenarios returns the benchmark registry on the default simulator
// backend; see ScenariosFor.
func Scenarios() []Scenario { return ScenariosFor(flow.DefaultBackend) }

// ScenariosFor returns the benchmark registry in a stable order, every
// scenario executing on the named simulator backend. The pinned subset
// is the CI regression set — gated once per backend against
// that backend's own baseline; the rest are opt-in investigations
// (larger images, monolithic-vs-partitioned contrast).
//
// The registry is descriptor-aware: raw kernel scenarios and the
// handcrafted design construct an event simulator directly, so they
// only exist for event-kind backends — a cycle backend (compiled) has
// no event queue to measure and its registry starts at the compiled
// flow. Unknown backend names get the full event registry; preparation
// reports the lookup error.
func ScenariosFor(backend string) []Scenario {
	var list []Scenario
	if b, err := flow.LookupBackend(backend); err != nil || b.Kind == flow.KindEvent {
		list = []Scenario{
			// Raw kernel traffic: the substrate numbers behind every
			// simulation time. Mirrors the pinned shapes benchmarked against
			// the seed heap reference in internal/hades.
			kernelScenario(backend, "kernel-rings", "64 self-rescheduling rings, periods 2..17 (lane traffic)", true,
				200_000, buildRings),
			kernelScenario(backend, "kernel-deltastorm", "32 rings with two zero-delay hops per firing (delta traffic)", true,
				100_000, buildDeltaStorm),
			kernelScenario(backend, "kernel-fanout", "one ring fanning out to 256 listeners (wide batches)", true,
				20_000, buildFanout),
			kernelScenario(backend, "kernel-timers", "128 timers with periods 2000..14300 (overflow-heap traffic)", true,
				2_000_000, buildFarTimers),

			// A handcrafted design in the XML dialects (the examples/
			// handcrafted accumulator, scaled up): netlist elaboration
			// without the compiler in the loop.
			{Name: "handcrafted-acc", Desc: "stimulus-fed accumulator over 4096 words (examples/handcrafted)",
				Pinned: true, Prepare: prepareHandcrafted(backend)},
		}
	}
	list = append(list, reconfigScenarios(backend)...)
	list = append(list, gangScenarios(backend)...)
	list = append(list, campaignScenarios(backend)...)

	// Every registered workload family's bench presets, end to end
	// through the RTG; wall time is the simulation only. Width presets
	// (rtg-hamming-w8/16/32) time the architecture the compiler
	// generates at that datapath width; the golden check is not in the
	// timed path for any of them.
	for _, w := range workloads.All() {
		w := w
		for _, p := range w.Presets() {
			if p.Suite {
				continue // suite-sized parameterizations belong to the regression suite
			}
			p := p
			sc := e2eScenario(backend, p.Name, p.Desc, p.Pinned,
				func() (core.TestCase, error) {
					// Inputs only: the timed path never verifies, so the
					// reference model would be computed just to be discarded.
					c, err := workloads.BuildWorkloadInputs(w, p.Values)
					if err != nil {
						return core.TestCase{}, err
					}
					c.Name = p.Name
					return core.WorkloadCase(c), nil
				},
				core.Options{Width: p.Width})
			sc.Family = w.Name()
			list = append(list, sc)
		}
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	for i := range list {
		list[i].Backend = backend
	}
	return list
}

// Select resolves a scenario selector: "all", "pinned", or a
// comma-separated list of names.
func Select(selector string, all []Scenario) ([]Scenario, error) {
	switch selector {
	case "", "pinned":
		var out []Scenario
		for _, sc := range all {
			if sc.Pinned {
				out = append(out, sc)
			}
		}
		return out, nil
	case "all":
		return all, nil
	}
	byName := map[string]Scenario{}
	for _, sc := range all {
		byName[sc.Name] = sc
	}
	var out []Scenario
	for _, name := range strings.Split(selector, ",") {
		if name == "" {
			continue
		}
		sc, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown scenario %q", name)
		}
		out = append(out, sc)
	}
	return out, nil
}

// --- kernel scenarios -------------------------------------------------------

// kernelScenario builds a fresh event simulator per iteration and runs
// it for a fixed simulated horizon; only the Run call is timed.
func kernelScenario(backend, name, desc string, pinned bool, horizon hades.Time, build func(sim *hades.Simulator)) Scenario {
	return Scenario{
		Name:   name,
		Desc:   desc,
		Pinned: pinned,
		Prepare: func() (RunFunc, error) {
			if _, err := flow.LookupBackend(backend); err != nil {
				return nil, err
			}
			return func() (Measure, error) {
				sim := hades.NewSimulator()
				build(sim)
				start := time.Now()
				if _, err := sim.Run(horizon); err != nil {
					return Measure{}, err
				}
				return Measure{Events: sim.Stats().Events, Wall: time.Since(start)}, nil
			}, nil
		},
	}
}

func buildRings(sim *hades.Simulator) {
	for k := 0; k < 64; k++ {
		sig := sim.NewSignal(fmt.Sprintf("ring%d", k), 32)
		p := hades.Time(k%16 + 2)
		sig.Listen(&hades.ReactorFunc{Label: "ring", Fn: func(s *hades.Simulator) {
			s.SetUint(sig, sig.Uint()+1, p)
		}})
		sim.SetUint(sig, 1, hades.Time(k%7+1))
	}
}

func buildDeltaStorm(sim *hades.Simulator) {
	for k := 0; k < 32; k++ {
		a := sim.NewSignal(fmt.Sprintf("a%d", k), 32)
		b := sim.NewSignal(fmt.Sprintf("b%d", k), 32)
		c := sim.NewSignal(fmt.Sprintf("c%d", k), 32)
		p := hades.Time(k%7 + 5)
		a.Listen(&hades.ReactorFunc{Label: "s0", Fn: func(s *hades.Simulator) { s.SetUint(b, a.Uint(), 0) }})
		b.Listen(&hades.ReactorFunc{Label: "s1", Fn: func(s *hades.Simulator) { s.SetUint(c, b.Uint(), 0) }})
		c.Listen(&hades.ReactorFunc{Label: "s2", Fn: func(s *hades.Simulator) { s.SetUint(a, c.Uint()+1, p) }})
		sim.SetUint(a, 1, hades.Time(k%5+1))
	}
}

func buildFanout(sim *hades.Simulator) {
	drv := sim.NewSignal("drv", 32)
	drv.Listen(&hades.ReactorFunc{Label: "drv", Fn: func(s *hades.Simulator) {
		s.SetUint(drv, drv.Uint()+1, 4)
	}})
	for k := 0; k < 256; k++ {
		out := sim.NewSignal(fmt.Sprintf("o%d", k), 32)
		d := hades.Time(k%4 + 1)
		drv.Listen(&hades.ReactorFunc{Label: "tap", Fn: func(s *hades.Simulator) {
			s.SetUint(out, drv.Uint(), d)
		}})
	}
	sim.SetUint(drv, 1, 1)
}

func buildFarTimers(sim *hades.Simulator) {
	for k := 0; k < 128; k++ {
		sig := sim.NewSignal(fmt.Sprintf("t%d", k), 32)
		p := hades.Time(2000 + k*97)
		sig.Listen(&hades.ReactorFunc{Label: "timer", Fn: func(s *hades.Simulator) {
			s.SetUint(sig, sig.Uint()+1, p)
		}})
		sim.SetUint(sig, 1, hades.Time(k+1))
	}
}

// --- end-to-end scenarios ---------------------------------------------------

// e2eScenario compiles and prepares the case once, then per iteration
// reseeds and walks the RTG through the reconfiguration replay cache.
// Wall is the sum of the per-configuration simulation walls: compile,
// memory seeding and reset/elaboration are excluded, so events/sec
// tracks the kernel, not the frontend (the replay/fresh contrast
// scenarios measure the frontend; see reconfigScenarios).
func e2eScenario(backend, name, desc string, pinned bool, tc func() (core.TestCase, error), opts core.Options) Scenario {
	return Scenario{
		Name:   name,
		Desc:   desc,
		Pinned: pinned,
		Prepare: func() (RunFunc, error) {
			pd, err := prepareCase(backend, tc, opts, false)
			if err != nil {
				return nil, err
			}
			return func() (Measure, error) { return simulateOnce(pd) }, nil
		},
	}
}

// prepareCase materializes, compiles and prepares a test case's design
// on the given backend, seeding the prepared design with the case's
// inputs.
func prepareCase(backend string, tc func() (core.TestCase, error), opts core.Options, fresh bool) (*flow.PreparedDesign, error) {
	c, err := tc()
	if err != nil {
		return nil, err
	}
	design, err := core.CompileOnly(c, opts)
	if err != nil {
		return nil, err
	}
	pipe, err := flow.New(flow.WithBackend(backend), flow.WithFreshElaboration(fresh))
	if err != nil {
		return nil, err
	}
	pd, err := pipe.PrepareDesign(design)
	if err != nil {
		return nil, err
	}
	for name, depth := range c.ArraySizes {
		words := make([]int64, depth)
		copy(words, c.Inputs[name])
		if err := pd.SetSeed(name, words); err != nil {
			return nil, err
		}
	}
	return pd, nil
}

// simulateOnce runs one reseed-and-execute round, reporting sim-only
// wall time.
func simulateOnce(pd *flow.PreparedDesign) (Measure, error) {
	exec, err := pd.Simulate()
	if err != nil {
		return Measure{}, err
	}
	if !exec.Completed {
		return Measure{}, fmt.Errorf("bench: %s: simulation incomplete", pd.Name())
	}
	var m Measure
	for _, run := range exec.Runs {
		m.Events += run.Events
		m.Cycles += run.Cycles
		m.Wall += run.Wall
	}
	m.Configs = uint64(len(exec.Runs))
	return m, nil
}

// --- reconfiguration scenarios ----------------------------------------------

// reconfigScenarios is the repeat-heavy contrast pair behind the replay
// cache: the same small designs run in a tight reconfiguration loop,
// once through reset-and-replay (replay-*) and once rebuilding every
// configuration (fresh-*, the paper's original flow). Unlike every
// other scenario, Wall covers the whole loop — reconfiguration
// included — so configs/sec and allocs/config quantify exactly the
// overhead the cache removes; comparing a replay-* result with its
// fresh-* sibling is the A/B. Small workloads on purpose: the shorter
// the per-configuration run, the more reconfiguration dominates, which
// is the worst case for the fresh path and the target of this cache.
func reconfigScenarios(backend string) []Scenario {
	type shape struct {
		family string
		name   string
		desc   string
		vals   workloads.Values
		rounds int
	}
	shapes := []shape{
		// Deliberately tiny run on a full-sized decoder: per-visit work
		// is almost all reconfiguration, the cache's best case and the
		// fresh path's worst.
		{"hamming", "hamming-x64", "hamming(words=1) reconfiguration loop, 64 runs per iteration", workloads.Values{"words": 1}, 64},
		// Multi-partition coverage: every loop round walks a two-node
		// RTG, so the cache serves two configurations per run.
		{"fdct2", "fdct2-x8", "fdct2(pixels=64) two-partition RTG loop, 8 runs per iteration", workloads.Values{"pixels": 64}, 8},
	}
	var list []Scenario
	for _, sh := range shapes {
		sh := sh
		tc := func() (core.TestCase, error) {
			w, err := workloads.Lookup(sh.family)
			if err != nil {
				return core.TestCase{}, err
			}
			c, err := workloads.BuildWorkloadInputs(w, sh.vals)
			if err != nil {
				return core.TestCase{}, err
			}
			c.Name = sh.name
			return core.WorkloadCase(c), nil
		}
		for _, mode := range []struct {
			prefix string
			fresh  bool
		}{{"replay", false}, {"fresh", true}} {
			mode := mode
			list = append(list, Scenario{
				Name:   mode.prefix + "-" + sh.name,
				Desc:   sh.desc + " (" + mode.prefix + " reconfiguration)",
				Family: sh.family,
				Pinned: true,
				Prepare: func() (RunFunc, error) {
					pd, err := prepareCase(backend, tc, core.Options{}, mode.fresh)
					if err != nil {
						return nil, err
					}
					rounds := sh.rounds
					return func() (Measure, error) {
						var m Measure
						start := time.Now()
						for i := 0; i < rounds; i++ {
							exec, err := pd.Simulate()
							if err != nil {
								return Measure{}, err
							}
							if !exec.Completed {
								return Measure{}, fmt.Errorf("bench: %s: simulation incomplete", pd.Name())
							}
							for _, run := range exec.Runs {
								m.Events += run.Events
								m.Cycles += run.Cycles
							}
							m.Configs += uint64(len(exec.Runs))
						}
						m.Wall = time.Since(start)
						return m, nil
					}, nil
				},
			})
		}
	}
	return list
}

// --- gang scenarios ---------------------------------------------------------

// gangScenarios is the lane-parallel pair behind the compiled backend's
// gang mode: one prepared design, 32 lanes with per-lane input images,
// all executed by a single SimulateGang call per timed iteration. Wall
// covers the whole gang round — reseed and reset included — so
// configs/sec is directly comparable between the lockstep path
// (compiled evaluates every lane inside one struct-of-arrays instance)
// and the sequential fallback an event backend runs lane by lane; that
// contrast is the gang acceptance ratio (see
// TestCompiledGangBeatsSequential). Each lane's inputs are a distinct
// rotation of the case's input stream, so lanes carry different data
// without changing the cycle count.
func gangScenarios(backend string) []Scenario {
	type shape struct {
		family string
		name   string
		desc   string
		vals   workloads.Values
		lanes  int
	}
	shapes := []shape{
		{"newton", "gang-newton", "newton(n=64,iters=12), 32 data lanes per gang round", workloads.Values{"n": 64, "iters": 12}, 32},
		{"erasure", "gang-erasure", "erasure(k=4,stripes=16), 32 data lanes per gang round", workloads.Values{"k": 4, "stripes": 16}, 32},
	}
	var list []Scenario
	for _, sh := range shapes {
		sh := sh
		list = append(list, Scenario{
			Name:   sh.name,
			Desc:   sh.desc,
			Family: sh.family,
			Pinned: true,
			Prepare: func() (RunFunc, error) {
				w, err := workloads.Lookup(sh.family)
				if err != nil {
					return nil, err
				}
				c, err := workloads.BuildWorkloadInputs(w, sh.vals)
				if err != nil {
					return nil, err
				}
				c.Name = sh.name
				tcase := core.WorkloadCase(c)
				pd, err := prepareCase(backend, func() (core.TestCase, error) { return tcase, nil }, core.Options{}, false)
				if err != nil {
					return nil, err
				}
				laneSeeds := make([]map[string][]int64, sh.lanes)
				for l := range laneSeeds {
					seeds := map[string][]int64{}
					for name, depth := range tcase.ArraySizes {
						src := tcase.Inputs[name]
						if len(src) == 0 {
							continue // output arrays keep the prepared zero seed
						}
						words := make([]int64, depth)
						for i := range src {
							if i >= depth {
								break
							}
							words[i] = src[(i+l)%len(src)]
						}
						seeds[name] = words
					}
					laneSeeds[l] = seeds
				}
				return func() (Measure, error) {
					var m Measure
					start := time.Now()
					sims, err := pd.SimulateGang(laneSeeds)
					if err != nil {
						return Measure{}, err
					}
					for l, s := range sims {
						if !s.Completed {
							return Measure{}, fmt.Errorf("bench: %s: lane %d incomplete", sh.name, l)
						}
						m.Events += s.Events
						m.Cycles += s.TotalCycles
						m.Configs += uint64(len(s.Runs))
					}
					m.Wall = time.Since(start)
					return m, nil
				}, nil
			},
		})
	}
	return list
}

// --- scenario-campaign scenarios --------------------------------------------

// campaignScenarios derives benchmarks from the embedded scenario specs
// (the same pinned specs checked in under examples/scenarios): one
// timed iteration runs the whole campaign — seeded expansion, prepared
// designs reused across repeated draws, faulted reseeding, per-case
// verification — so configs/sec measures the scenario engine end to
// end rather than a single kernel. The specs are validated by expanding
// once in Prepare; campaigns stay unpinned because their wall time
// folds in compile and verify work, making them investigations rather
// than kernel regression gates.
func campaignScenarios(backend string) []Scenario {
	var list []Scenario
	for _, name := range scenario.ExampleNames() {
		name := name
		short := strings.TrimSuffix(name, ".json")
		list = append(list, Scenario{
			Name: "campaign-" + short,
			Desc: "full " + short + " scenario campaign per iteration (examples/scenarios)",
			Prepare: func() (RunFunc, error) {
				sc, err := scenario.LoadExample(name, nil)
				if err != nil {
					return nil, err
				}
				if _, err := sc.Expand(); err != nil {
					return nil, err
				}
				opts := scenario.Options{Backend: backend}
				return func() (Measure, error) {
					start := time.Now()
					res, err := sc.Run(context.Background(), opts, nil)
					if err != nil {
						return Measure{}, err
					}
					if !res.OK() {
						return Measure{}, fmt.Errorf("bench: campaign %s went red: %+v", short, res.Summary)
					}
					return Measure{
						Events:  res.Summary.Events,
						Cycles:  res.Summary.Cycles,
						Configs: res.Summary.Configs,
						Wall:    time.Since(start),
					}, nil
				}, nil
			},
		})
	}
	return list
}

// --- handcrafted scenario ---------------------------------------------------

// prepareHandcrafted is the examples/handcrafted accumulator scaled to a
// 4096-word stimulus: a design written directly in the XML dialects,
// elaborated by netlist with no compiler involved (so the backend's
// simulator is built directly rather than through a controller).
func prepareHandcrafted(backend string) func() (RunFunc, error) {
	return func() (RunFunc, error) {
		if _, err := flow.LookupBackend(backend); err != nil {
			return nil, err
		}
		stimulus := make([]int64, 4096)
		for i := range stimulus {
			stimulus[i] = int64(i%251 + 1)
		}
		dp, fsm := handcraftedDesign()
		return func() (Measure, error) {
			// Validation and resolution run inside each measure, so
			// allocs/event counts the whole path from hand-written XML
			// to a running netlist; the wall clock covers the run only.
			if err := xmlspec.ValidateDatapath(dp, operators.DefaultRegistry()); err != nil {
				return Measure{}, err
			}
			if err := xmlspec.ValidateFSM(fsm); err != nil {
				return Measure{}, err
			}
			plan, err := netlist.Resolve(dp, fsm)
			if err != nil {
				return Measure{}, err
			}
			sim := hades.NewSimulator()
			clk := sim.NewSignal("clk", 1)
			el, err := netlist.Elaborate(sim, clk, plan, map[string][]int64{"src": stimulus})
			if err != nil {
				return Measure{}, err
			}
			start := time.Now()
			rr, err := el.RunToCompletion(10, 1_000_000)
			if err != nil {
				return Measure{}, err
			}
			wall := time.Since(start)
			if !rr.Completed {
				return Measure{}, fmt.Errorf("bench: handcrafted-acc: incomplete after %d cycles", rr.Cycles)
			}
			return Measure{Events: sim.Stats().Events, Cycles: rr.Cycles, Wall: wall}, nil
		}, nil
	}
}

func handcraftedDesign() (*xmlspec.Datapath, *xmlspec.FSM) {
	dp := &xmlspec.Datapath{
		Name:  "acc",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "src", Type: "stim"},
			{ID: "r_acc", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "cap", Type: "sink"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_acc.q", To: "add0.a"},
			{From: "src.out", To: "add0.b"},
			{From: "add0.y", To: "r_acc.d"},
			{From: "r_acc.q", To: "cap.in"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_acc", Targets: []xmlspec.ControlTo{{Port: "r_acc.en"}}},
			{Name: "en_cap", Targets: []xmlspec.ControlTo{{Port: "cap.en"}}},
		},
		Statuses: []xmlspec.Status{
			{Name: "last", From: "src.last"},
		},
	}
	fsm := &xmlspec.FSM{
		Name:    "acc_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "last"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_acc"}, {Name: "en_cap"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "RUN", Initial: true,
				Assigns: []xmlspec.Assign{
					{Signal: "en_acc", Value: 1},
					{Signal: "en_cap", Value: 1},
				},
				Transitions: []xmlspec.Transition{
					{Cond: "!last", Next: "RUN"},
					{Next: "END"},
				},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return dp, fsm
}
