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
// controller itself is safe for concurrent use: Execute, ExecuteGang,
// LoadMemory and Memory all serialize on an internal mutex,
// so N goroutines hammering one controller interleave whole operations
// instead of racing (TestConcurrentExecuteIsSerializedAndRaceFree).
// Callers that need a reseed and a walk to be atomic with respect to
// other goroutines (a verification round) must add that atomicity one
// level up — flow.PreparedDesign and flow.Session do. For parallel
// walks, build one controller per goroutine: the elaboration caches are
// fully independent.
//
// # One walk
//
// Execute and ExecuteGang are one walk over a set of lanes: each
// configuration is one step per engine, the event step running each
// active lane in turn on the cached elaboration, the cycle step running
// every active lane in lockstep on one cycle.Instance. Execute walks one
// lane over the controller's store with the hooks on; ExecuteGang walks
// lane snapshots with the hooks off. Cancellation is a per-call
// context; a nil one never cancels.
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
	// event queue, and ExecuteGang runs lanes in lockstep. When
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
// design, so it takes no lock and never waits for a walk.
func (c *Controller) MemoryIDs() []string {
	out := make([]string, 0, len(c.design.RTG.Memories))
	for _, m := range c.design.RTG.Memories {
		out = append(out, m.ID)
	}
	return out
}

// Execute walks the RTG from its start configuration over the
// controller's own store: each node is reconfigured (elaborated on first
// visit, reset-and-replayed from the cache after), seeded with the
// shared store, run until its FSM completes, and its shared memory
// contents written back to the store. The Observer and AfterConfig
// hooks fire for every configuration. Execute may be called
// repeatedly; reseed inputs with LoadMemory between runs. ctx cancels
// the walk; nil never cancels.
func (c *Controller) Execute(ctx context.Context) (*ExecResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lanes := []GangLane{{Exec: ExecResult{Completed: true}, Memories: c.store}}
	err := c.walk(ctx, lanes, true)
	return &lanes[0].Exec, err
}

// walk is the one RTG walk: it steps every active lane through each
// configuration in turn, on the event kernel or the cycle engine, until
// the RTG ends or no lane is left running. A lane is active while its
// Exec.Completed holds; hooks turns the Observer/AfterConfig hooks on.
// The caller holds c.mu.
func (c *Controller) walk(ctx context.Context, lanes []GangLane, hooks bool) error {
	var interrupt func() bool
	if ctx != nil {
		interrupt = func() bool { return ctx.Err() != nil }
	}
	for cur, steps := c.design.RTG.Start, 0; cur != ""; cur, steps = c.design.RTG.Successor(cur), steps+1 {
		if steps >= c.opts.MaxConfigs {
			return fmt.Errorf("rtg: %s: reconfiguration bound %d exceeded (cycle in RTG?)",
				c.design.RTG.Name, c.opts.MaxConfigs)
		}
		cfg, ok := c.design.RTG.FindConfiguration(cur)
		if !ok {
			return fmt.Errorf("rtg: unknown configuration %q", cur)
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("rtg: %s: canceled before configuration %q: %w",
				c.design.RTG.Name, cur, ctx.Err())
		}
		var err error
		if c.opts.Compiled {
			err = c.cycleStep(cfg, lanes, interrupt, hooks)
		} else {
			err = c.eventStep(cfg, lanes, interrupt, hooks)
		}
		if err != nil {
			return err
		}
		running := false
		for l := range lanes {
			running = running || lanes[l].Exec.Completed
		}
		if !running {
			return nil
		}
	}
	return nil
}

// record appends one configuration's run to a lane's walk; a run that
// missed its cycle cap stops the lane.
func (c *Controller) record(lane *GangLane, run ConfigRun, hooks bool) {
	lane.Exec.Runs = append(lane.Exec.Runs, run)
	if hooks && c.opts.AfterConfig != nil {
		c.opts.AfterConfig(run)
	}
	lane.Exec.TotalCycles += run.Cycles
	if !run.Completed {
		lane.Exec.Completed = false
	}
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

// elaboration returns a configuration's live elaboration seeded with
// init: the cached one reset and replayed, or — at the first visit, or
// on every visit with replay off — a fresh build from the plan.
func (c *Controller) elaboration(cfg *xmlspec.Configuration, init map[string][]int64) (*netlist.Elaboration, error) {
	if el := c.cache[cfg.ID]; el != nil {
		el.Reset(init)
		return el, nil
	}
	plan, err := c.plan(cfg)
	if err != nil {
		return nil, err
	}
	sim := hades.NewSimulator()
	el, err := netlist.Elaborate(sim, sim.NewSignal(cfg.ID+".clk", 1), plan, init)
	if err != nil {
		return nil, err
	}
	if c.cache != nil {
		c.cache[cfg.ID] = el
	}
	return el, nil
}

// eventStep runs one configuration on the event kernel for each active
// lane in turn, writing its shared memories back to the lane's store.
func (c *Controller) eventStep(cfg *xmlspec.Configuration, lanes []GangLane, interrupt func() bool, hooks bool) error {
	for l := range lanes {
		lane := &lanes[l]
		if !lane.Exec.Completed {
			continue
		}
		if err := c.configInit(cfg, lane.Memories, c.laneInit); err != nil {
			return err
		}
		el, err := c.elaboration(cfg, c.laneInit)
		if err != nil {
			return fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		sim := el.Sim
		// A cached simulator may carry an earlier walk's hook.
		sim.Interrupt = interrupt
		if hooks && c.opts.Observer != nil {
			c.opts.Observer(cfg.ID, el)
		}
		start := time.Now()
		rr, err := el.RunToCompletion(c.opts.ClockPeriod, c.opts.MaxCycles)
		if err != nil {
			return fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
		}
		wall := time.Since(start)
		run := ConfigRun{
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
		// lane store's buffers, and copy the sink recordings, whose
		// buffers the next replay round reuses.
		ops := el.Plan().Ops()
		for i, comp := range el.Components() {
			switch x := comp.(type) {
			case *operators.RAM:
				if ref := ops[i].Ref; ref != "" {
					x.CopyContents(lane.Memories[ref])
				}
			case *operators.Sink:
				run.Sinks[ops[i].ID] = append([]int64(nil), x.Recorded()...)
			}
		}
		c.record(lane, run, hooks)
	}
	return nil
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

// cycleStep runs one configuration on the cycle engine for every active
// lane in lockstep: each lane is reset from its store into one
// instance for the lane count, the instance runs clock by clock with no
// event queue, and each lane's shared memories are written back.
func (c *Controller) cycleStep(cfg *xmlspec.Configuration, lanes []GangLane, interrupt func() bool, hooks bool) error {
	inst, err := c.cycleInstance(cfg, len(lanes))
	if err != nil {
		return fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
	}
	running := 0
	for l := range lanes {
		if !lanes[l].Exec.Completed {
			continue
		}
		if err := c.configInit(cfg, lanes[l].Memories, c.laneInit); err != nil {
			return err
		}
		inst.Reset(l, c.laneInit)
		running++
	}
	start := time.Now()
	if err := inst.Run(c.opts.ClockPeriod, c.opts.MaxCycles, interrupt); err != nil {
		return fmt.Errorf("rtg: configuration %q: %w", cfg.ID, err)
	}
	wall := time.Since(start) / time.Duration(running)
	dp := c.design.Datapaths[cfg.Datapath]
	for l := range lanes {
		if !lanes[l].Exec.Completed {
			continue
		}
		for i := range dp.Operators {
			if ref := dp.Operators[i].Ref; ref != "" {
				inst.CopyShared(l, ref, lanes[l].Memories[ref])
			}
		}
		c.record(&lanes[l], laneRunRecord(cfg.ID, inst, l, wall), hooks)
	}
	return nil
}

// laneRunRecord converts one lane's results into a ConfigRun record.
func laneRunRecord(cfgID string, inst *cycle.Instance, lane int, wall time.Duration) ConfigRun {
	lr := inst.Result(lane)
	run := ConfigRun{
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

// ExecuteGang walks the RTG once for a whole population of lanes, the
// same walk as Execute with the Observer/AfterConfig hooks off. Each
// lane starts from a private snapshot of the current shared store,
// overlaid with its laneSeeds entry (keyed by shared-memory id; a
// seeded memory is loaded LoadMemory-style, missing ids keep the store
// contents; a nil map keeps the store as-is). Gang lanes never touch
// the controller's own store.
//
// On the cycle engine each configuration runs every active lane in
// lockstep on one compiled instance, so the walk and the per-node
// bookkeeping amortize over the population; the event kernel runs the
// lanes one after another on the replay cache, the baseline gang
// benchmarks compare against.
//
// A lane whose configuration misses the cycle cap stops walking
// (Exec.Completed false) without affecting the other lanes; hard errors
// abort the whole gang. ctx cancels the walk; nil never cancels.
func (c *Controller) ExecuteGang(ctx context.Context, laneSeeds []map[string][]int64) ([]GangLane, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(laneSeeds) == 0 {
		return nil, fmt.Errorf("rtg: %s: gang execution needs at least one lane", c.design.RTG.Name)
	}
	lanes := make([]GangLane, len(laneSeeds))
	for l := range lanes {
		for id := range laneSeeds[l] {
			if _, ok := c.store[id]; !ok {
				return nil, fmt.Errorf("rtg: gang lane %d: unknown shared memory %q", l, id)
			}
		}
		st := make(map[string][]int64, len(c.store))
		for id, words := range c.store {
			buf := make([]int64, len(words))
			if seed, ok := laneSeeds[l][id]; ok {
				copy(buf, seed)
			} else {
				copy(buf, words)
			}
			st[id] = buf
		}
		lanes[l] = GangLane{Exec: ExecResult{Completed: true}, Memories: st}
	}
	err := c.walk(ctx, lanes, false)
	return lanes, err
}
