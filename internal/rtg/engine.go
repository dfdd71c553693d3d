package rtg

import (
	"repro/internal/hades"
	"repro/internal/netlist"
)

// Engine is the execution strategy a controller runs configurations on.
// Two shapes exist today: EventEngine (a discrete-event kernel factory,
// the paper's model) and CycleEngine (a compiled clock-by-clock
// evaluator with no event queue). The flow backend registry hands the
// controller an Engine through Options.Engine; event backends arrive
// wrapped in a SimulatorEngine.
type Engine interface {
	// EngineName identifies the engine in run records (ConfigRun.Kernel).
	EngineName() string
}

// EventEngine is an Engine backed by a hades event kernel: the
// controller elaborates each configuration as a component graph on a
// simulator from NewSimulator and replays it via reset.
type EventEngine interface {
	Engine
	NewSimulator() *hades.Simulator
}

// SimulatorEngine adapts a bare event-kernel factory — the shape every
// pre-engine backend registered — to the Engine interface.
type SimulatorEngine struct {
	Kernel string // reported name
	New    func() *hades.Simulator
}

// EngineName returns the configured kernel name.
func (e *SimulatorEngine) EngineName() string { return e.Kernel }

// NewSimulator builds one event kernel instance.
func (e *SimulatorEngine) NewSimulator() *hades.Simulator { return e.New() }

// CycleEngine is an Engine that compiles a configuration once into a
// levelized clock-by-clock program and instantiates it for one or many
// lanes (gang simulation evaluates N configuration instances of the
// same program in lockstep, struct-of-arrays).
type CycleEngine interface {
	Engine
	// CompileConfiguration levelizes one resolved configuration;
	// engines reject operator kinds they have no compiled model for.
	CompileConfiguration(plan *netlist.Plan) (ConfigProgram, error)
}

// ConfigProgram is a compiled configuration, instantiable for any lane
// count. Programs are immutable and safe to share.
type ConfigProgram interface {
	// Instantiate allocates runnable state for the given number of
	// lanes (lockstep copies of the configuration).
	Instantiate(lanes int) ConfigInstance
}

// LaneRun reports one lane's execution of one configuration — the
// cycle-engine counterpart of netlist.RunResult plus kernel counters.
type LaneRun struct {
	Cycles     uint64
	EndTime    hades.Time
	Completed  bool
	FinalState string
	Stats      hades.Stats
}

// ConfigInstance is runnable per-lane state of a compiled
// configuration. The controller resets the lanes it wants to run (a
// reset arms the lane), runs all armed lanes in lockstep, then reads
// results and memory contents back per lane.
type ConfigInstance interface {
	// Lanes returns the lane count the instance was built with.
	Lanes() int
	// Reset rewinds one lane to the program's initial state, reseeding
	// memories and stimuli from init (keyed by operator id; missing ids
	// zero-fill / reload nothing, mirroring netlist.Elaboration.Reset).
	// Implementations must copy init contents and keep no reference to
	// init: callers reuse the map and its backing slices. Reset arms the
	// lane for the next Run.
	Reset(lane int, init map[string][]int64)
	// Run executes every armed lane clock-by-clock until its FSM
	// asserts done (or maxCycles), disarming lanes as they finish.
	// interrupt, when non-nil, is polled once per cycle; a true return
	// aborts with hades.ErrInterrupted.
	Run(period hades.Time, maxCycles uint64, interrupt func() bool) error
	// Result reports a lane's last run.
	Result(lane int) LaneRun
	// Sinks returns a lane's sink recordings by operator id. The slices
	// are live instance buffers; callers must copy before the next Reset.
	Sinks(lane int) map[string][]int64
	// CopyShared writes a lane's contents of the RAM bound to the given
	// RTG shared-memory ref into dst (sign-extended words), reporting
	// whether the ref exists.
	CopyShared(lane int, ref string, dst []int64) bool
}
