package flow

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cycle"
	"repro/internal/hades"
)

// BackendKind classifies a backend's execution model: event backends
// schedule per-event on a hades kernel, cycle backends evaluate a
// levelized program clock-by-clock with no event queue.
type BackendKind string

// Backend kinds.
const (
	KindEvent BackendKind = "event"
	KindCycle BackendKind = "cycle"
)

// BackendInfo is the public descriptor of a simulator backend — what
// Backends() returns and what the simd wire API serves.
type BackendInfo struct {
	Name         string
	Kind         BackendKind
	Desc         string
	SupportsGang bool
}

// DefaultBackend is the backend a pipeline uses when none is selected.
const DefaultBackend = hades.KernelTwoLevel

// BackendCompiled names the levelized cycle-based engine.
const BackendCompiled = cycle.Kernel

// backends is the closed set of simulator backends, default first. A
// new engine is one row here plus one branch in internal/rtg.
var backends = []BackendInfo{
	{Name: DefaultBackend, Kind: KindEvent,
		Desc: "two-level time-bucketed event queue (default, fastest event kernel)"},
	{Name: BackendCompiled, Kind: KindCycle, SupportsGang: true,
		Desc: "levelized cycle-by-cycle engine, no event queue; evaluates configuration gangs in lockstep"},
}

// LookupBackend resolves a backend by name ("" means DefaultBackend).
// The unknown-name error carries the full descriptor catalog — one
// stable message shared by every lookup path.
func LookupBackend(name string) (BackendInfo, error) {
	if name == "" {
		name = DefaultBackend
	}
	for _, b := range backends {
		if b.Name == name {
			return b, nil
		}
	}
	return BackendInfo{}, fmt.Errorf("flow: unknown backend %q (registered: %s)", name, BackendCatalog())
}

// Backends lists the backend descriptors, default first.
func Backends() []BackendInfo { return slices.Clone(backends) }

// BackendNames lists the backend names in Backends() order — the
// plain-string form for flag parsing and pool keys.
func BackendNames() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	return names
}

// BackendCatalog renders the descriptors as "name (kind): desc"
// entries in Backends() order, the form the unknown-backend error and
// every tool's -backend flag help share.
func BackendCatalog() string {
	parts := make([]string, len(backends))
	for i, b := range backends {
		parts[i] = fmt.Sprintf("%s (%s): %s", b.Name, b.Kind, b.Desc)
	}
	return strings.Join(parts, "; ")
}
