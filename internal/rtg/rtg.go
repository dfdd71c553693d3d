// Package rtg executes a Reconfiguration Transition Graph: it sequences
// the temporal partitions of a multi-configuration design, running each
// configuration to completion and carrying shared memory contents
// across reconfigurations — the role of the generated rtg.java in the
// paper's flow ("Java code that controls the execution of the
// simulation through the set of temporal partitions").
//
// The paper's flow pays a full reconfiguration — fresh simulator plus
// complete netlist elaboration — on every configuration visit. The
// controller instead keeps a replay cache: the first visit of a
// configuration elaborates and remembers the wired component graph, and
// every later visit (RTG revisit, repeated Execute) resets and replays
// it, which is trace-identical to a fresh build
// (TestReplayMatchesFreshElaboration) at a fraction of the cost.
// Options.DisableReplay restores the elaborate-every-visit behavior.
//
// Either way each configuration is resolved once: its first visit
// binds the datapath to its FSM into a netlist.Plan, which the
// controller keeps for its lifetime, and every build — elaboration,
// compilation, fresh or cached — starts from that plan.
//
// # Concurrency
//
// A Controller owns live simulators (the replay cache) and a mutable
// shared-memory store, so its walks are inherently serial — but the
// controller itself is safe for concurrent use: Execute, ExecuteContext,
// LoadMemory, Memory and SetContext all serialize on an internal mutex,
// so N goroutines hammering one controller interleave whole operations
// instead of racing (TestConcurrentExecuteIsSerializedAndRaceFree).
// Callers that need a reseed and a walk to be atomic with respect to
// other goroutines (a verification round) must add that atomicity one
// level up — flow.PreparedDesign and flow.Session do. For parallel
// walks, build one controller per goroutine: the elaboration caches are
// fully independent.
package rtg

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cycle"
	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// Options tunes RTG execution.
//
// ClockPeriod, MaxCycles and MaxConfigs are required: this package
// deliberately has no numeric defaults of its own. The single source of
// truth for defaulting is internal/flow (flow.DefaultClockPeriod and
// friends); every production caller reaches the controller through a
// flow.Pipeline, which always fills these in.
type Options struct {
	ClockPeriod hades.Time // required; > 0
	MaxCycles   uint64     // per configuration; required
	MaxConfigs  int        // reconfiguration bound; required
	// Compiled selects the cycle engine (internal/cycle): each
	// configuration is levelized once and replayed clock by clock with no
	// event queue, and ExecuteGangContext runs lanes in lockstep. When
	// false, configurations run on the hades event kernel, reported as
	// the twolevel kernel.
	Compiled bool
	// LocalInit seeds non-shared memories/stimuli per configuration id
	// and operator id (contents typically come from the I/O files).
	LocalInit map[string]map[string][]int64
	// Observer, when set, is called with each configuration's live
	// elaboration before the run starts (probe/VCD attachment hook).
	Observer func(cfgID string, el *netlist.Elaboration)
	// AfterConfig, when set, is called with each configuration's run
	// record as soon as that configuration completes — the streaming
	// progress hook behind flow observers, fired even when a later
	// configuration fails.
	AfterConfig func(run ConfigRun)
	// Context, when set, cancels execution: it is checked before each
	// configuration and polled by the event kernel once per simulated
	// instant, so per-case timeouts stop a running simulation promptly.
	Context context.Context
	// DisableReplay forces every configuration visit onto a fresh
	// simulator with a full netlist elaboration from the configuration's
	// plan — the paper's original reconfiguration cost, less the
	// resolution the plan keeps. By default the
	// controller keeps a per-configuration elaboration cache: a
	// revisited configuration (RTG revisit, repeated Execute) is reset
	// and replayed on its cached simulator instead of rebuilt, which is
	// trace-identical (TestReplayMatchesFreshElaboration) and removes
	// elaboration from the repeat path. The ablation/cross-check hook.
	DisableReplay bool
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.ClockPeriod <= 0 {
		return out, fmt.Errorf("rtg: Options.ClockPeriod must be positive (construct options through internal/flow, which supplies the defaults)")
	}
	if out.MaxCycles == 0 {
		return out, fmt.Errorf("rtg: Options.MaxCycles must be set (construct options through internal/flow, which supplies the defaults)")
	}
	if out.MaxConfigs <= 0 {
		return out, fmt.Errorf("rtg: Options.MaxConfigs must be positive (construct options through internal/flow, which supplies the defaults)")
	}
	return out, nil
}

// ConfigRun reports one executed configuration.
type ConfigRun struct {
	ID         string
	Cycles     uint64
	EndTime    hades.Time
	Completed  bool
	FinalState string
	Events     uint64
	Stats      hades.Stats        // full kernel counters for this configuration
	Kernel     string             // kernel the configuration ran on
	Wall       time.Duration      // host wall-clock time of the simulation
	Sinks      map[string][]int64 // recorded sink streams by operator id
}

// ExecResult reports a full RTG execution.
type ExecResult struct {
	Runs        []ConfigRun
	TotalCycles uint64
	Completed   bool // every configuration reached done
}

// Controller owns the shared-memory store and walks the RTG.
type Controller struct {
	design *xmlspec.Design
	opts   Options
	// mu serializes every operation that touches the store, the replay
	// cache, or the options: walks are serial by construction (the cache
	// holds live simulators), and the mutex makes concurrent misuse
	// safe instead of racy. Never held across calls out to user code
	// other than the Observer/AfterConfig hooks — those must not call
	// back into the controller.
	mu    sync.Mutex
	store map[string][]int64
	// plans holds each configuration's resolved plan from its first
	// visit on, replay cache or not.
	plans map[string]*netlist.Plan
	// cache holds one live elaboration per configuration id — the
	// controller's engine is fixed, so within a controller the
	// configuration id alone keys (configuration, kernel). nil when
	// Options.DisableReplay is set.
	cache map[string]*netlist.Elaboration
	// progs and insts are the cycle-engine replay caches: one compiled
	// program per configuration id and one instance per (configuration,
	// lane count). nil when Options.DisableReplay is set.
	progs map[string]*cycle.Program
	insts map[instKey]*cycle.Instance
	// seedBuf reuses per-operator seed-copy buffers across runs so the
	// replay path's mandatory copies (see runConfiguration) do not
	// allocate in the steady state.
	seedBuf map[seedKey][]int64
	// laneInit is the InitData map the cycle paths refill for every lane
	// reset: a cycle.Instance copies what Reset reads and keeps no
	// reference, so one map serves every visit.
	laneInit map[string][]int64
}

// instKey and seedKey are comparable cache keys: a lookup builds no
// string, so the replay and gang paths key a visit without allocating.
type instKey struct {
	cfg   string
	lanes int
}

type seedKey struct{ cfg, op string }

// NewController validates the design and prepares the shared store
// (zero-filled; use LoadMemory to seed contents from files). A shared
// memory deeper than operators.MaxDepth is rejected before anything is
// allocated, as a datapath ram or rom is.
func NewController(design *xmlspec.Design, opts Options) (*Controller, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := xmlspec.ValidateDesign(design, operators.DefaultRegistry()); err != nil {
		return nil, err
	}
	c := &Controller{design: design, opts: o, store: map[string][]int64{}, plans: map[string]*netlist.Plan{},
		seedBuf: map[seedKey][]int64{}, laneInit: map[string][]int64{}}
	if !o.DisableReplay {
		c.cache = map[string]*netlist.Elaboration{}
		c.progs = map[string]*cycle.Program{}
		c.insts = map[instKey]*cycle.Instance{}
	}
	for _, m := range design.RTG.Memories {
		if m.Depth > operators.MaxDepth {
			return nil, fmt.Errorf("rtg %s: memory %q needs a depth in [1, %d], has %d",
				design.RTG.Name, m.ID, operators.MaxDepth, m.Depth)
		}
		c.store[m.ID] = make([]int64, m.Depth)
	}
	return c, nil
}

// Options returns the effective (defaulted) options the controller
// runs with; the flow defaults test observes them here.
func (c *Controller) Options() Options {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts
}

// SetContext replaces the controller's default cancellation context —
// the one Execute polls when no per-walk context is given. Prepare-time
// contexts must not outlive the preparation (flow.PrepareContext
// restores the pipeline context here once elaboration is done).
func (c *Controller) SetContext(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.Context = ctx
}

// LoadMemory seeds a shared memory's contents before execution.
func (c *Controller) LoadMemory(id string, words []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, ok := c.store[id]
	if !ok {
		return fmt.Errorf("rtg: unknown shared memory %q", id)
	}
	for i := range buf {
		if i < len(words) {
			buf[i] = words[i]
		} else {
			buf[i] = 0
		}
	}
	return nil
}

// Memory returns a copy of a shared memory's current contents.
func (c *Controller) Memory(id string) ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, ok := c.store[id]
	if !ok {
		return nil, fmt.Errorf("rtg: unknown shared memory %q", id)
	}
	out := make([]int64, len(buf))
	copy(out, buf)
	return out, nil
}

// MemoryIDs lists the shared memories. It reads only the immutable
// design, so it takes no lock: gang walks swap the store while they run.
func (c *Controller) MemoryIDs() []string {
	out := make([]string, 0, len(c.design.RTG.Memories))
	for _, m := range c.design.RTG.Memories {
		out = append(out, m.ID)
	}
	return out
}

// Execute walks the RTG from its start configuration: each node is
// reconfigured (elaborated on first visit, reset-and-replayed from the
// cache after), seeded with the shared store, run until its FSM
// completes, and its shared memory contents written back to the store.
// Execute may be called repeatedly; reseed inputs with LoadMemory
// between runs. It polls the controller's configured context; use
// ExecuteContext for a per-walk one.
func (c *Controller) Execute() (*ExecResult, error) {
	return c.ExecuteContext(nil)
}

// ExecuteContext is Execute under a per-walk cancellation context: when
// ctx is non-nil it overrides the controller's configured context for
// this walk only — the session shape, where one long-lived controller
// serves requests that each carry their own deadline. A nil ctx falls
// back to the configured context.
func (c *Controller) ExecuteContext(ctx context.Context) (*ExecResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx == nil {
		ctx = c.opts.Context
	}
	return c.walkLocked(ctx)
}

// walkLocked performs one full RTG walk against the current store. The
// caller holds c.mu and has already resolved the effective context.
func (c *Controller) walkLocked(ctx context.Context) (*ExecResult, error) {
	res := &ExecResult{Completed: true}
	cur := c.design.RTG.Start
	for steps := 0; cur != ""; steps++ {
		if steps >= c.opts.MaxConfigs {
			return res, fmt.Errorf("rtg: %s: reconfiguration bound %d exceeded (cycle in RTG?)",
				c.design.RTG.Name, c.opts.MaxConfigs)
		}
		cfg, ok := c.design.RTG.FindConfiguration(cur)
		if !ok {
			return res, fmt.Errorf("rtg: unknown configuration %q", cur)
		}
		if ctx != nil && ctx.Err() != nil {
			return res, fmt.Errorf("rtg: %s: canceled before configuration %q: %w",
				c.design.RTG.Name, cur, ctx.Err())
		}
		run, err := c.runConfiguration(cfg, ctx)
		if err != nil {
			return res, err
		}
		res.Runs = append(res.Runs, *run)
		if c.opts.AfterConfig != nil {
			c.opts.AfterConfig(*run)
		}
		res.TotalCycles += run.Cycles
		if !run.Completed {
			res.Completed = false
			return res, nil
		}
		cur = c.design.RTG.Successor(cur)
	}
	return res, nil
}

// seedCopy copies words into a reused per-(configuration, operator)
// buffer. Seeds must never alias their source: elaboration hands the
// slice straight to the component (a stimulus keeps it as its vector),
// so an aliased seed would let an in-place mutation of the caller's
// LocalInit — or the store's own write-back — rewrite a live or cached
// configuration's inputs mid-flight.
func (c *Controller) seedCopy(cfgID, opID string, words []int64) []int64 {
	key := seedKey{cfgID, opID}
	buf := c.seedBuf[key]
	if cap(buf) < len(words) {
		buf = make([]int64, len(words))
		c.seedBuf[key] = buf
	}
	buf = buf[:len(words)]
	copy(buf, words)
	return buf
}

// configInit fills init (cleared first) with one configuration's
// InitData against the given shared store: locals from LocalInit, shared
// refs from the store — every seed copied (see seedCopy).
func (c *Controller) configInit(cfg *xmlspec.Configuration, store, init map[string][]int64) error {
	dp := c.design.Datapaths[cfg.Datapath]
	clear(init)
	for id, words := range c.opts.LocalInit[cfg.ID] {
		init[id] = c.seedCopy(cfg.ID, id, words)
	}
	for i := range dp.Operators {
		op := &dp.Operators[i]
		if op.Ref != "" {
			words, ok := store[op.Ref]
			if !ok {
				return fmt.Errorf("rtg: configuration %q: unknown shared memory %q", cfg.ID, op.Ref)
			}
			init[op.ID] = c.seedCopy(cfg.ID, op.ID, words)
		}
	}
	return nil
}

// plan returns a configuration's plan, resolving it at the first visit.
func (c *Controller) plan(cfg *xmlspec.Configuration) (*netlist.Plan, error) {
	if p, ok := c.plans[cfg.ID]; ok {
		return p, nil
	}
	p, err := netlist.Resolve(c.design.Datapaths[cfg.Datapath], c.design.FSMs[cfg.FSM])
	if err != nil {
		return nil, err
	}
	c.plans[cfg.ID] = p
	return p, nil
}

func (c *Controller) runConfiguration(cfg *xmlspec.Configuration, ctx context.Context) (*ConfigRun, error) {
	if c.opts.Compiled {
		return c.runConfigurationCycle(cfg, ctx)
	}
	init := map[string][]int64{}
	if err := c.configInit(cfg, c.store, init); err != nil {
		return nil, err
	}

	// The reconfiguration: a cached configuration is reset and replayed
	// on its existing simulator; otherwise the fabric is built fresh —
	// and remembered, so the next visit of this node replays.
	el := c.cache[cfg.ID]
	if el != nil {
		el.Reset(init)
	} else {
		plan, err := c.plan(cfg)
		if err != nil {
			return nil, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		sim := hades.NewSimulator()
		clk := sim.NewSignal(cfg.ID+".clk", 1)
		el, err = netlist.Elaborate(sim, clk, plan, init)
		if err != nil {
			return nil, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		if c.cache != nil {
			c.cache[cfg.ID] = el
		}
	}
	sim := el.Sim
	// Install (or clear) the interrupt hook for this walk's context: a
	// cached simulator may carry a hook from an earlier walk's context.
	if ctx != nil {
		sim.Interrupt = func() bool { return ctx.Err() != nil }
	} else {
		sim.Interrupt = nil
	}
	if c.opts.Observer != nil {
		c.opts.Observer(cfg.ID, el)
	}
	start := time.Now()
	rr, err := el.RunToCompletion(c.opts.ClockPeriod, c.opts.MaxCycles)
	if err != nil {
		return nil, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
	}
	wall := time.Since(start)

	run := &ConfigRun{
		ID:         cfg.ID,
		Cycles:     rr.Cycles,
		EndTime:    rr.EndTime,
		Completed:  rr.Completed,
		FinalState: rr.FinalState,
		Events:     sim.Stats().Events,
		Stats:      sim.Stats(),
		Kernel:     hades.KernelTwoLevel,
		Wall:       wall,
		Sinks:      map[string][]int64{},
	}
	// Write back shared memories (the fabric is about to be
	// reconfigured; only the SRAM contents survive) straight into the
	// store's buffers, and copy the sink recordings, whose buffers the
	// next replay round reuses.
	ops := el.Plan().Ops()
	for i, comp := range el.Components() {
		switch x := comp.(type) {
		case *operators.RAM:
			if ref := ops[i].Ref; ref != "" {
				x.CopyContents(c.store[ref])
			}
		case *operators.Sink:
			run.Sinks[ops[i].ID] = append([]int64(nil), x.Recorded()...)
		}
	}
	return run, nil
}

// cycleInstance resolves (and on the replay path caches) the compiled
// program and lane-count instance for one configuration.
func (c *Controller) cycleInstance(cfg *xmlspec.Configuration, lanes int) (*cycle.Instance, error) {
	key := instKey{cfg.ID, lanes}
	if c.insts != nil {
		if inst, ok := c.insts[key]; ok {
			return inst, nil
		}
	}
	prog := c.progs[cfg.ID]
	if prog == nil {
		plan, err := c.plan(cfg)
		if err != nil {
			return nil, err
		}
		if prog, err = cycle.Compile(plan); err != nil {
			return nil, err
		}
		if c.progs != nil {
			c.progs[cfg.ID] = prog
		}
	}
	inst := prog.NewInstance(lanes)
	if c.insts != nil {
		c.insts[key] = inst
	}
	return inst, nil
}

// runConfigurationCycle is runConfiguration on the cycle engine:
// compile (or fetch) the levelized program, reset a single lane from the
// store, and execute clock-by-clock with no event queue.
func (c *Controller) runConfigurationCycle(cfg *xmlspec.Configuration, ctx context.Context) (*ConfigRun, error) {
	inst, err := c.cycleInstance(cfg, 1)
	if err != nil {
		return nil, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
	}
	if err := c.configInit(cfg, c.store, c.laneInit); err != nil {
		return nil, err
	}
	inst.Reset(0, c.laneInit)
	var interrupt func() bool
	if ctx != nil {
		interrupt = func() bool { return ctx.Err() != nil }
	}
	start := time.Now()
	if err := inst.Run(c.opts.ClockPeriod, c.opts.MaxCycles, interrupt); err != nil {
		return nil, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
	}
	wall := time.Since(start)
	dp := c.design.Datapaths[cfg.Datapath]
	for i := range dp.Operators {
		op := &dp.Operators[i]
		if op.Ref != "" {
			inst.CopyShared(0, op.Ref, c.store[op.Ref])
		}
	}
	return laneRunRecord(cfg.ID, inst, 0, wall), nil
}

// laneRunRecord converts one lane's results into a ConfigRun record.
func laneRunRecord(cfgID string, inst *cycle.Instance, lane int, wall time.Duration) *ConfigRun {
	lr := inst.Result(lane)
	run := &ConfigRun{
		ID:         cfgID,
		Cycles:     lr.Cycles,
		EndTime:    lr.EndTime,
		Completed:  lr.Completed,
		FinalState: lr.FinalState,
		Events:     lr.Stats.Events,
		Stats:      lr.Stats,
		Kernel:     cycle.Kernel,
		Wall:       wall,
		Sinks:      map[string][]int64{},
	}
	for id, rec := range inst.Sinks(lane) {
		run.Sinks[id] = append([]int64(nil), rec...)
	}
	return run
}

// GangLane reports one lane of a gang execution: the lane's full RTG
// walk and its final shared-memory contents. Gang lanes never touch the
// controller's own store.
type GangLane struct {
	Exec     ExecResult
	Memories map[string][]int64
}

// ExecuteGangContext walks the RTG once for a whole population of
// lanes. Each lane starts from a private snapshot of the current shared
// store, overlaid with its laneSeeds entry (keyed by shared-memory id;
// a seeded memory is loaded LoadMemory-style, missing ids keep the
// store contents; a nil map keeps the store as-is).
//
// On the cycle engine the lanes execute in lockstep: every
// configuration is compiled once, instantiated for the lane count, and
// evaluated struct-of-arrays — the walk and the per-node bookkeeping
// amortize over the population. The event kernel falls back to one
// sequential walk per lane (sharing the replay cache), which is the
// baseline gang benchmarks compare against. Per-configuration AfterConfig/Observer
// hooks do not fire during gang walks.
//
// A lane whose configuration misses the cycle cap stops walking
// (Exec.Completed false) without affecting the other lanes; hard errors
// abort the whole gang.
func (c *Controller) ExecuteGangContext(ctx context.Context, laneSeeds []map[string][]int64) ([]GangLane, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx == nil {
		ctx = c.opts.Context
	}
	lanes := len(laneSeeds)
	if lanes == 0 {
		return nil, fmt.Errorf("rtg: %s: gang execution needs at least one lane", c.design.RTG.Name)
	}
	stores := make([]map[string][]int64, lanes)
	for l := range stores {
		for id := range laneSeeds[l] {
			if _, ok := c.store[id]; !ok {
				return nil, fmt.Errorf("rtg: gang lane %d: unknown shared memory %q", l, id)
			}
		}
		st := make(map[string][]int64, len(c.store))
		for id, words := range c.store {
			buf := make([]int64, len(words))
			if seed, ok := laneSeeds[l][id]; ok {
				for i := range buf {
					if i < len(seed) {
						buf[i] = seed[i]
					}
				}
			} else {
				copy(buf, words)
			}
			st[id] = buf
		}
		stores[l] = st
	}
	if c.opts.Compiled {
		return c.gangLockstep(ctx, stores)
	}
	return c.gangSequential(ctx, stores)
}

// gangSequential runs one full walk per lane on the event engine,
// swapping the lane's private store in for the walk. The replay cache
// is shared across lanes — each configuration elaborates at most once
// for the whole gang.
func (c *Controller) gangSequential(ctx context.Context, stores []map[string][]int64) ([]GangLane, error) {
	out := make([]GangLane, len(stores))
	saved := c.store
	defer func() { c.store = saved }()
	for l := range stores {
		c.store = stores[l]
		res, err := c.walkLocked(ctx)
		if err != nil {
			return out, fmt.Errorf("rtg: gang lane %d: %w", l, err)
		}
		out[l] = GangLane{Exec: *res, Memories: stores[l]}
	}
	return out, nil
}

// gangLockstep walks the RTG once, evaluating every active lane of each
// configuration in lockstep on the compiled program.
func (c *Controller) gangLockstep(ctx context.Context, stores []map[string][]int64) ([]GangLane, error) {
	lanes := len(stores)
	out := make([]GangLane, lanes)
	active := make([]bool, lanes)
	for l := range out {
		out[l] = GangLane{Exec: ExecResult{Completed: true}, Memories: stores[l]}
		active[l] = true
	}
	var interrupt func() bool
	if ctx != nil {
		interrupt = func() bool { return ctx.Err() != nil }
	}
	cur := c.design.RTG.Start
	for steps := 0; cur != ""; steps++ {
		if steps >= c.opts.MaxConfigs {
			return out, fmt.Errorf("rtg: %s: reconfiguration bound %d exceeded (cycle in RTG?)",
				c.design.RTG.Name, c.opts.MaxConfigs)
		}
		cfg, ok := c.design.RTG.FindConfiguration(cur)
		if !ok {
			return out, fmt.Errorf("rtg: unknown configuration %q", cur)
		}
		if ctx != nil && ctx.Err() != nil {
			return out, fmt.Errorf("rtg: %s: canceled before configuration %q: %w",
				c.design.RTG.Name, cur, ctx.Err())
		}
		inst, err := c.cycleInstance(cfg, lanes)
		if err != nil {
			return out, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		running := 0
		for l := range active {
			if !active[l] {
				continue
			}
			if err := c.configInit(cfg, stores[l], c.laneInit); err != nil {
				return out, err
			}
			inst.Reset(l, c.laneInit)
			running++
		}
		if running == 0 {
			break
		}
		start := time.Now()
		if err := inst.Run(c.opts.ClockPeriod, c.opts.MaxCycles, interrupt); err != nil {
			return out, fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		wall := time.Since(start) / time.Duration(running)
		dp := c.design.Datapaths[cfg.Datapath]
		for l := range active {
			if !active[l] {
				continue
			}
			for i := range dp.Operators {
				op := &dp.Operators[i]
				if op.Ref != "" {
					inst.CopyShared(l, op.Ref, stores[l][op.Ref])
				}
			}
			run := laneRunRecord(cfg.ID, inst, l, wall)
			out[l].Exec.Runs = append(out[l].Exec.Runs, *run)
			out[l].Exec.TotalCycles += run.Cycles
			if !run.Completed {
				out[l].Exec.Completed = false
				active[l] = false
			}
		}
		cur = c.design.RTG.Successor(cur)
	}
	return out, nil
}
