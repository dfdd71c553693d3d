// Package flow is the unified pipeline API for the paper's Figure-1
// verification flow: compile → transform → elaborate → simulate →
// verify against the golden interpreter.
//
// Every consumer of the infrastructure — the regression-suite runner
// (internal/core), the benchmark harness (internal/bench), the
// co-simulation system (internal/cosim) and all the command-line tools
// — sits on this package instead of hand-wiring the stages. A Pipeline
// carries one resolved Config built from functional options
// (WithWidth, WithClock, WithMaxCycles, WithContext, WithWorkDir,
// WithArtifacts, WithBackend, WithObserver, …); the typed stage values
// Source → Compiled → Elaborated → SimResult → Verdict make the
// dataflow explicit; Observers stream stage and per-configuration
// progress; and WithBackend picks one of the two simulator backends
// every configuration runs on: the hades event kernel (twolevel, the
// default) or the compiled cycle engine (compiled).
//
// This package is also the single source of truth for the flow
// defaults (DefaultClockPeriod, DefaultMaxCycles, DefaultMaxConfigs):
// internal/rtg deliberately rejects unset bounds, and the CLI flag
// defaults are taken from here, so no second copy of a default exists
// anywhere in the tree.
//
// See docs/FLOW.md for a guided tour.
package flow

import (
	"context"
	"fmt"

	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/rtg"
)

// Canonical flow defaults. Everything that needs a clock period, cycle
// cap or reconfiguration bound — core.Options zero values, rtg
// controllers, the hsim/gnc/testsuite flag defaults — resolves to these
// constants and nothing else.
const (
	// DefaultClockPeriod is the clock period in simulator ticks.
	DefaultClockPeriod hades.Time = 10
	// DefaultMaxCycles caps the cycles simulated per configuration.
	DefaultMaxCycles uint64 = 50_000_000
	// DefaultMaxConfigs bounds the reconfiguration walk (RTG cycles).
	DefaultMaxConfigs = 1024
)

// Config is the resolved configuration of a Pipeline. Construct it
// through New and the With* options; the zero value is not useful.
type Config struct {
	Width          int        // datapath word width (0: compiler default, 32)
	AutoPartitions int        // auto-split into N temporal partitions (0: markers only)
	ClockPeriod    hades.Time // simulator ticks per clock cycle
	MaxCycles      uint64     // per-configuration cycle cap
	MaxConfigs     int        // reconfiguration bound
	WorkDir        string     // when set, stages write artifacts under WorkDir/<name>
	EmitArtifacts  bool       // also write dot/java/hds translations (requires WorkDir)
	Backend        string     // simulator backend name; "" means DefaultBackend
	// FreshElaboration disables the reconfiguration replay cache:
	// every configuration visit rebuilds simulator and netlist from the
	// configuration's cached plan (the paper's original flow). See
	// WithFreshElaboration.
	FreshElaboration bool
	Context          context.Context
	Observers        []Observer
}

// Option is a functional configuration option for New.
type Option func(*Config)

// WithWidth sets the datapath word width.
func WithWidth(w int) Option { return func(c *Config) { c.Width = w } }

// WithAutoPartitions asks the compiler to split a marker-free function
// body into n temporal partitions.
func WithAutoPartitions(n int) Option { return func(c *Config) { c.AutoPartitions = n } }

// WithClock sets the clock period in simulator ticks.
func WithClock(period hades.Time) Option { return func(c *Config) { c.ClockPeriod = period } }

// WithMaxCycles caps the simulated cycles per configuration.
func WithMaxCycles(n uint64) Option { return func(c *Config) { c.MaxCycles = n } }

// WithMaxConfigs bounds the reconfiguration walk.
func WithMaxConfigs(n int) Option { return func(c *Config) { c.MaxConfigs = n } }

// WithWorkDir directs the stages to write their artifacts (XML bundle,
// memory files, simulated memory contents) under dir/<case name>.
func WithWorkDir(dir string) Option { return func(c *Config) { c.WorkDir = dir } }

// WithArtifacts additionally emits the dot/java/hds translations of
// every compiled document (requires WithWorkDir).
func WithArtifacts(emit bool) Option { return func(c *Config) { c.EmitArtifacts = emit } }

// WithBackend selects the simulator backend by name (see Backends).
func WithBackend(name string) Option { return func(c *Config) { c.Backend = name } }

// WithFreshElaboration(true) disables the reconfiguration replay cache,
// rebuilding every configuration on a fresh simulator per visit — the
// paper's original reconfiguration cost, less the resolution each
// configuration's plan keeps from its first visit. The default (false)
// resets and replays cached elaborations on repeat visits, which is
// trace-identical and is what makes Prepare-once/Run-many cheap; this
// option exists for A/B measurement (the bench fresh-* scenarios) and
// cross-checking.
func WithFreshElaboration(fresh bool) Option {
	return func(c *Config) { c.FreshElaboration = fresh }
}

// WithContext threads a cancellation context through every stage; the
// event kernel polls it once per simulated instant.
func WithContext(ctx context.Context) Option { return func(c *Config) { c.Context = ctx } }

// WithObserver attaches a streaming observer; repeatable, observers are
// notified in attachment order.
func WithObserver(o Observer) Option {
	return func(c *Config) { c.Observers = append(c.Observers, o) }
}

// Pipeline executes the verification flow under one resolved Config.
// A Pipeline is cheap; build one per case or share one across cases —
// stages keep no mutable pipeline state.
type Pipeline struct {
	cfg Config
}

// New resolves the options into a Pipeline. It fails when the selected
// backend is unknown.
func New(opts ...Option) (*Pipeline, error) {
	cfg := Config{
		ClockPeriod: DefaultClockPeriod,
		MaxCycles:   DefaultMaxCycles,
		MaxConfigs:  DefaultMaxConfigs,
		Backend:     DefaultBackend,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Backend == "" {
		cfg.Backend = DefaultBackend
	}
	if cfg.ClockPeriod <= 0 {
		cfg.ClockPeriod = DefaultClockPeriod
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	if cfg.MaxConfigs <= 0 {
		cfg.MaxConfigs = DefaultMaxConfigs
	}
	if _, err := LookupBackend(cfg.Backend); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

// Config returns the pipeline's resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// ctxErr reports a pending cancellation, wrapped with the stage name.
func (p *Pipeline) ctxErr(stage StageName, name string) error {
	if ctx := p.cfg.Context; ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("flow: %s %s: %w", stage, name, ctx.Err())
	}
	return nil
}

// rtgOptions is the only place in the tree that constructs rtg.Options:
// the controller requires every bound to be set explicitly, and this is
// where the flow defaults meet it.
func (p *Pipeline) rtgOptions() rtg.Options {
	return rtg.Options{
		ClockPeriod:   p.cfg.ClockPeriod,
		MaxCycles:     p.cfg.MaxCycles,
		MaxConfigs:    p.cfg.MaxConfigs,
		Compiled:      p.cfg.Backend == BackendCompiled,
		Context:       p.cfg.Context,
		DisableReplay: p.cfg.FreshElaboration,
		Observer: func(cfgID string, el *netlist.Elaboration) {
			for _, o := range p.cfg.Observers {
				o.ConfigElaborated(cfgID, el)
			}
		},
		AfterConfig: func(run rtg.ConfigRun) {
			for _, o := range p.cfg.Observers {
				o.ConfigDone(run)
			}
		},
	}
}
