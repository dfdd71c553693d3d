package flow

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cycle"
	"repro/internal/hades"
	"repro/internal/rtg"
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

// Backend is one registered simulator implementation: the descriptor
// (name, description, kind, capabilities) plus the factory for its
// execution engine. Event backends supply New, the kernel factory the
// registry wraps in an rtg.SimulatorEngine; cycle backends supply
// Engine directly. A zero Kind registers as KindEvent, so pre-descriptor
// registrations (name + New) keep working unchanged.
type Backend struct {
	Name string
	Desc string
	Kind BackendKind
	// SupportsGang marks engines that evaluate configuration gangs in
	// lockstep; event backends run gang lanes sequentially instead.
	SupportsGang bool
	// New builds one event kernel (required for event backends).
	New func() *hades.Simulator
	// Engine builds the execution engine (required for cycle backends;
	// event backends default to a SimulatorEngine adapter around New).
	Engine func() rtg.Engine
}

// Info returns the backend's public descriptor.
func (b Backend) Info() BackendInfo {
	return BackendInfo{Name: b.Name, Kind: b.Kind, Desc: b.Desc, SupportsGang: b.SupportsGang}
}

// engine resolves the backend's rtg.Engine: the declared factory, or
// the event-kernel adapter — which reports the backend name and builds
// simulators exactly as the pre-engine registry did, keeping the event
// backends' behavior byte-identical.
func (b Backend) engine() rtg.Engine {
	if b.Engine != nil {
		return b.Engine()
	}
	return &rtg.SimulatorEngine{Kernel: b.Name, New: b.New}
}

// BackendInfo is the public descriptor of a registered backend — what
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
const BackendCompiled = "compiled"

var (
	backendMu sync.RWMutex
	backends  = map[string]Backend{}
)

func init() {
	MustRegisterBackend(Backend{
		Name: hades.KernelTwoLevel,
		Desc: "two-level time-bucketed event queue (default, fastest event kernel)",
		Kind: KindEvent,
		New:  hades.NewSimulator,
	})
	MustRegisterBackend(Backend{
		Name:         BackendCompiled,
		Desc:         "levelized cycle-by-cycle engine, no event queue; evaluates configuration gangs in lockstep",
		Kind:         KindCycle,
		SupportsGang: true,
		Engine:       func() rtg.Engine { return cycle.New() },
	})
}

// RegisterBackend adds a simulator backend to the registry. Names must
// be unique; an event backend (the default kind) needs a kernel
// factory, a cycle backend an engine factory.
func RegisterBackend(b Backend) error {
	if b.Name == "" {
		return fmt.Errorf("flow: backend needs a name and a factory")
	}
	switch b.Kind {
	case "":
		b.Kind = KindEvent
	case KindEvent, KindCycle:
	default:
		return fmt.Errorf("flow: backend %q: unknown kind %q", b.Name, b.Kind)
	}
	if b.Kind == KindEvent && b.New == nil {
		return fmt.Errorf("flow: backend needs a name and a factory")
	}
	if b.Kind == KindCycle && b.Engine == nil {
		return fmt.Errorf("flow: cycle backend %q needs an engine factory", b.Name)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[b.Name]; dup {
		return fmt.Errorf("flow: backend %q already registered", b.Name)
	}
	backends[b.Name] = b
	return nil
}

// MustRegisterBackend is RegisterBackend panicking on error, for
// package-init registration.
func MustRegisterBackend(b Backend) {
	if err := RegisterBackend(b); err != nil {
		panic(err)
	}
}

// LookupBackend resolves a backend by name ("" means DefaultBackend).
// The unknown-name error carries the full sorted descriptor catalog —
// one stable message shared by every lookup path.
func LookupBackend(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backends[name]
	if !ok {
		return Backend{}, fmt.Errorf("flow: unknown backend %q (registered: %s)", name, backendCatalogLocked())
	}
	return b, nil
}

// Backends lists the registered backend descriptors, default first, the
// rest sorted by name.
func Backends() []BackendInfo {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendInfosLocked()
}

// BackendNames lists the registered backend names in Backends() order —
// the plain-string form for flag parsing and pool keys.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	infos := backendInfosLocked()
	names := make([]string, len(infos))
	for i, bi := range infos {
		names[i] = bi.Name
	}
	return names
}

func backendInfosLocked() []BackendInfo {
	rest := make([]BackendInfo, 0, len(backends))
	for name, b := range backends {
		if name != DefaultBackend {
			rest = append(rest, b.Info())
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	out := make([]BackendInfo, 0, len(rest)+1)
	if def, ok := backends[DefaultBackend]; ok {
		out = append(out, def.Info())
	}
	return append(out, rest...)
}

// backendCatalogLocked renders the descriptor list for error messages:
// "name (kind): desc" entries in Backends() order.
func backendCatalogLocked() string {
	infos := backendInfosLocked()
	parts := make([]string, len(infos))
	for i, bi := range infos {
		parts[i] = fmt.Sprintf("%s (%s): %s", bi.Name, bi.Kind, bi.Desc)
	}
	return strings.Join(parts, "; ")
}
