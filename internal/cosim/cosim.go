// Package cosim implements the paper's stated further work: "functional
// simulation of a microprocessor tightly coupled to reconfigurable
// hardware components". A System alternates software phases (MiniJ
// functions executed behaviourally, standing in for code running on the
// coupled microprocessor) and hardware phases (compiled designs executed
// on the event-driven simulator through the RTG controller), all sharing
// one memory pool — the same-language co-simulation argument the paper
// makes (no specialised co-simulation environment needed when both sides
// are modelled in one language).
package cosim

import (
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/interp"
	"repro/internal/lang"
)

// System is a software/hardware co-simulation session around a shared
// memory pool.
type System struct {
	mems map[string][]int64
	log  []PhaseReport
}

// PhaseReport records one executed phase.
type PhaseReport struct {
	Kind   string // "software" or "hardware"
	Name   string
	Wall   time.Duration
	Cycles uint64 // hardware phases only
	Steps  uint64 // software phases only
}

// NewSystem creates a co-simulation system with the given shared
// memories (name → depth).
func NewSystem(memories map[string]int) *System {
	s := &System{mems: map[string][]int64{}}
	for name, depth := range memories {
		s.mems[name] = make([]int64, depth)
	}
	return s
}

// Memory returns the live shared memory (not a copy): software phases
// mutate it directly, as a microprocessor would its DMA window.
func (s *System) Memory(name string) ([]int64, error) {
	m, ok := s.mems[name]
	if !ok {
		return nil, fmt.Errorf("cosim: unknown memory %q", name)
	}
	return m, nil
}

// Load copies words into a shared memory.
func (s *System) Load(name string, words []int64) error {
	m, err := s.Memory(name)
	if err != nil {
		return err
	}
	for i := range m {
		if i < len(words) {
			m[i] = words[i]
		} else {
			m[i] = 0
		}
	}
	return nil
}

// Log returns the executed phase reports in order.
func (s *System) Log() []PhaseReport { return s.log }

// RunSoftware executes a MiniJ function behaviourally over the shared
// pool: every array parameter binds to the shared memory of the same
// name.
func (s *System) RunSoftware(src, funcName string, scalarArgs map[string]int64) error {
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	if _, err := lang.Analyze(prog); err != nil {
		return err
	}
	f, ok := prog.FindFunc(funcName)
	if !ok {
		return fmt.Errorf("cosim: no function %q", funcName)
	}
	arrays := map[string][]int64{}
	for _, p := range f.Params {
		if !p.IsArray {
			continue
		}
		m, err := s.Memory(p.Name)
		if err != nil {
			return fmt.Errorf("cosim: software phase %s: %w", funcName, err)
		}
		arrays[p.Name] = m
	}
	start := time.Now()
	res, err := interp.Run(f, arrays, scalarArgs, interp.Options{})
	if err != nil {
		return err
	}
	s.log = append(s.log, PhaseReport{
		Kind: "software", Name: funcName, Wall: time.Since(start), Steps: res.Steps,
	})
	return nil
}

// RunHardware compiles a MiniJ function and executes the generated
// architecture on the simulator through the flow pipeline, with its
// SRAMs seeded from — and written back to — the shared pool. The
// options select the backend, clock, cycle caps and observers; the flow
// defaults apply when none are given.
func (s *System) RunHardware(src, funcName string, scalarArgs map[string]int64, opts ...flow.Option) error {
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	f, ok := prog.FindFunc(funcName)
	if !ok {
		return fmt.Errorf("cosim: no function %q", funcName)
	}
	source := flow.Source{
		Name:       funcName,
		Text:       src,
		Func:       funcName,
		ArraySizes: map[string]int{},
		ScalarArgs: scalarArgs,
		Inputs:     map[string][]int64{},
	}
	for _, p := range f.Params {
		if !p.IsArray {
			continue
		}
		m, err := s.Memory(p.Name)
		if err != nil {
			return fmt.Errorf("cosim: hardware phase %s: %w", funcName, err)
		}
		source.ArraySizes[p.Name] = len(m)
		source.Inputs[p.Name] = m
	}
	pipe, err := flow.New(opts...)
	if err != nil {
		return err
	}
	d, err := pipe.Prepare(source)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := d.Simulate()
	if err != nil {
		return err
	}
	if !res.Completed {
		return fmt.Errorf("cosim: hardware phase %s did not complete", funcName)
	}
	for name := range source.ArraySizes {
		copy(s.mems[name], res.Memories[name])
	}
	s.log = append(s.log, PhaseReport{
		Kind: "hardware", Name: funcName, Wall: time.Since(start), Cycles: res.TotalCycles,
	})
	return nil
}
