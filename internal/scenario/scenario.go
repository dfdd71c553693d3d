// Package scenario is the stochastic campaign engine: it expands a
// declarative, seeded scenario spec (api.ScenarioSpec — a weighted mix
// of workload families, parameter distributions, an arrival process and
// an optional fault plan) into a deterministic sequence of resolved
// cases, drives them through flow.Prepare/PreparedDesign with a replay
// cache per resolved parameterization, and records every materialized
// decision as a versioned JSONL trace. Traces replay bit-identically
// (Replay) and support counterfactual re-runs with one dimension
// substituted (Counterfactual): same trace, other backend, other width,
// or faults off.
//
// Every random decision — family selection, parameter draws, arrival
// times, fault sites and bits — derives from the spec's single
// top-level seed through per-purpose sub-streams, so one int64
// reproduces the whole campaign and adding draws to one dimension does
// not shift any other.
package scenario

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/api"
	"repro/internal/hades"
	"repro/internal/workloads"
)

// MaxCases caps a spec's case count, a guard against accidental
// million-case campaigns in a request body.
const MaxCases = 100000

// Scenario is a loaded, validated spec bound to the workload registry
// it draws families from.
type Scenario struct {
	Spec api.ScenarioSpec
	reg  *workloads.Registry
	mix  []mixEntry
}

// mixEntry is one compiled mix line: the family, its normalized weight,
// and its parameter distributions in deterministic (sorted) order.
type mixEntry struct {
	w      workloads.Workload
	weight float64
	dists  []paramDist
}

type paramDist struct {
	name string
	d    api.Dist
}

// Load validates a spec against a workload registry (nil means the
// default registry) and returns the runnable scenario. Validation
// covers the datapath width (0, the compiler default, up to
// hades.MaxWidth), the mix (families exist, every distribution is
// well-formed and inside the parameter's [Min, Max] range), the arrival
// process, and the fault plan (rates, bit counts, and the
// must-fail/must-recover policies, which require an erasure-only mix —
// the MDS decoder is the recovery oracle).
func Load(spec *api.ScenarioSpec, reg *workloads.Registry) (*Scenario, error) {
	if reg == nil {
		reg = workloads.Default
	}
	if err := api.CheckVersion(spec.SchemaVersion); err != nil {
		return nil, err
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("scenario: spec needs a name")
	}
	if spec.Cases < 1 || spec.Cases > MaxCases {
		return nil, fmt.Errorf("scenario: %s: cases %d outside [1, %d]", spec.Name, spec.Cases, MaxCases)
	}
	if spec.Width < 0 || spec.Width > hades.MaxWidth {
		return nil, fmt.Errorf("scenario: %s: width %d outside [0, %d] (0 selects the compiler default)",
			spec.Name, spec.Width, hades.MaxWidth)
	}
	if len(spec.Mix) == 0 {
		return nil, fmt.Errorf("scenario: %s: empty mix", spec.Name)
	}
	sc := &Scenario{Spec: *spec, reg: reg}
	for i, m := range spec.Mix {
		w, err := reg.Lookup(m.Family)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: mix[%d]: %w", spec.Name, i, err)
		}
		if m.Weight < 0 {
			return nil, fmt.Errorf("scenario: %s: mix[%d] %s: negative weight %g", spec.Name, i, m.Family, m.Weight)
		}
		weight := m.Weight
		if weight == 0 {
			weight = 1
		}
		entry := mixEntry{w: w, weight: weight}
		schema := map[string]workloads.Param{}
		for _, p := range w.Params() {
			schema[p.Name] = p
		}
		names := make([]string, 0, len(m.Params))
		for name := range m.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p, ok := schema[name]
			if !ok {
				return nil, fmt.Errorf("scenario: %s: mix[%d]: %s has no parameter %q", spec.Name, i, m.Family, name)
			}
			d := m.Params[name]
			if err := checkDist(d, p); err != nil {
				return nil, fmt.Errorf("scenario: %s: mix[%d] %s.%s: %w", spec.Name, i, m.Family, name, err)
			}
			entry.dists = append(entry.dists, paramDist{name: name, d: d})
		}
		sc.mix = append(sc.mix, entry)
	}
	if err := checkArrival(spec.Arrival); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", spec.Name, err)
	}
	if err := sc.checkFaults(spec.Faults); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", spec.Name, err)
	}
	return sc, nil
}

// Parse decodes and Loads a spec from r.
func Parse(r io.Reader, reg *workloads.Registry) (*Scenario, error) {
	spec, err := api.DecodeScenarioSpec(r)
	if err != nil {
		return nil, err
	}
	return Load(spec, reg)
}

// LoadFile reads, decodes and Loads a spec file.
func LoadFile(path string, reg *workloads.Registry) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Parse(f, reg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return sc, nil
}

// checkDist validates one distribution against its parameter's range.
func checkDist(d api.Dist, p workloads.Param) error {
	if err := d.Validate(); err != nil {
		return err
	}
	check := func(v int) error {
		if v < p.Min || v > p.Max {
			return fmt.Errorf("value %d outside [%d, %d]", v, p.Min, p.Max)
		}
		return nil
	}
	switch {
	case d.Const != nil:
		return check(*d.Const)
	case d.Uniform != nil:
		if err := check(d.Uniform.Min); err != nil {
			return err
		}
		return check(d.Uniform.Max)
	default:
		for _, v := range d.Choice {
			if err := check(v); err != nil {
				return err
			}
		}
		return nil
	}
}

func checkArrival(a *api.ArrivalSpec) error {
	if a == nil {
		return nil
	}
	switch a.Kind {
	case api.ArrivalDeterministic:
		if a.IntervalNS <= 0 {
			return fmt.Errorf("deterministic arrival needs interval_ns > 0")
		}
	case api.ArrivalPoisson:
		if a.Rate <= 0 {
			return fmt.Errorf("poisson arrival needs rate > 0")
		}
	case api.ArrivalGamma:
		if a.Rate <= 0 || a.Shape <= 0 {
			return fmt.Errorf("gamma arrival needs rate > 0 and shape > 0")
		}
	default:
		return fmt.Errorf("unknown arrival kind %q (have: %s, %s, %s)",
			a.Kind, api.ArrivalDeterministic, api.ArrivalPoisson, api.ArrivalGamma)
	}
	return nil
}

func (sc *Scenario) checkFaults(f *api.FaultPlan) error {
	if f == nil {
		return nil
	}
	if f.Rate < 0 || f.Rate > 1 {
		return fmt.Errorf("fault rate %g outside [0, 1]", f.Rate)
	}
	if f.Bits < 0 || f.Bits > 32 {
		return fmt.Errorf("fault bits %d outside [1, 32]", f.Bits)
	}
	if f.MaxFlips < 0 {
		return fmt.Errorf("negative max_flips %d", f.MaxFlips)
	}
	switch f.Policy {
	case "", api.PolicyObserve:
	case api.PolicyMustRecover, api.PolicyMustFail:
		for _, m := range sc.Spec.Mix {
			if m.Family != "erasure" {
				return fmt.Errorf("policy %q requires an erasure-only mix (the MDS decoder is the recovery oracle), got family %q",
					f.Policy, m.Family)
			}
		}
		for _, a := range f.Arrays {
			if a != "in" {
				return fmt.Errorf("policy %q targets the erasure stimulus array \"in\", got %q", f.Policy, a)
			}
		}
	default:
		return fmt.Errorf("unknown fault policy %q (have: %s, %s, %s)",
			f.Policy, api.PolicyObserve, api.PolicyMustRecover, api.PolicyMustFail)
	}
	return nil
}
