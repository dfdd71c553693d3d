package xmlspec

import (
	"fmt"
	"strings"

	"repro/internal/hades"
	"repro/internal/operators"
)

// ValidationError aggregates every problem found in a document so the
// compiler author sees them all at once.
type ValidationError struct {
	Doc      string
	Problems []string
}

// Error joins the problems.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("xmlspec: %s: %d problem(s):\n  %s",
		e.Doc, len(e.Problems), strings.Join(e.Problems, "\n  "))
}

type checker struct {
	doc      string
	problems []string
}

func (c *checker) addf(format string, args ...interface{}) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// width reports a declared width the kernel cannot carry. Zero, the
// absent attribute, selects the dialect's default.
func (c *checker) width(kind, name string, w int) {
	if w < 0 || w > hades.MaxWidth {
		c.addf("%s %q has width %d outside [1, %d]", kind, name, w, hades.MaxWidth)
	}
}

func (c *checker) err() error {
	if len(c.problems) == 0 {
		return nil
	}
	return &ValidationError{Doc: c.doc, Problems: c.problems}
}

// endpoint splits "inst.port"; the port part may itself not contain dots.
func endpoint(s string) (inst, port string, ok bool) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// fanIn reports a mux whose fan-in exceeds drivers, the datapath's
// connections plus control targets. Elaboration needs every in<i>
// driven, so such a mux can never elaborate; rejecting it before its
// port list is built keeps an oversized inputs attribute from
// allocating one port per input.
func (c *checker) fanIn(op *Operator, drivers int) bool {
	if op.Type != "mux" || op.Inputs <= drivers {
		return false
	}
	c.addf("operator %q has %d mux inputs, more than the %d connections and control targets that could drive them",
		op.ID, op.Inputs, drivers)
	return true
}

// portKey names a port of the operator with index op in the
// validator's list of instances.
type portKey struct {
	op   int32
	port string
}

// site is where an endpoint appears: the from or to side of connection
// idx, a target of control idx, or the source of status idx. It stands
// in for the endpoint's label until a problem needs the text; the zero
// site is no site.
type site struct {
	kind siteKind
	idx  int32
}

type siteKind uint8

const (
	siteNone siteKind = iota
	siteFrom
	siteTo
	siteControl
	siteStatus
)

// label renders the site as problems name it.
func (s site) label(d *Datapath) string {
	switch s.kind {
	case siteFrom:
		return "connect from=" + d.Connections[s.idx].From
	case siteTo:
		return "connect to=" + d.Connections[s.idx].To
	case siteControl:
		return "control " + d.Controls[s.idx].Name
	default:
		return "status " + d.Statuses[s.idx].Name
	}
}

// ValidateDatapath checks structural sanity against the operator registry:
// widths the kernel can carry, known types, unique ids, mux fan-ins the
// datapath can drive, endpoints referencing real instance ports with
// compatible directions, and single drivers per sink port.
func ValidateDatapath(d *Datapath, reg *operators.Registry) error {
	c := &checker{doc: "datapath " + d.Name}
	c.width("datapath", d.Name, d.Width)
	drivers := len(d.Connections)
	for i := range d.Controls {
		drivers += len(d.Controls[i].Targets)
	}
	// A port list of up to scanPorts entries is searched in place. A
	// longer one (a mux's grows with its fan-in) goes into one map, so a
	// lookup stays O(1) in the port count.
	const scanPorts = 8
	type instance struct {
		ports []operators.PortSpec
		first int // index of ports[0] in the numbering of all instances' ports
	}
	insts := make([]instance, 0, len(d.Operators))
	byID := make(map[string]int32, len(d.Operators)) // id -> index in insts
	nports, nlong := 0, 0
	for i := range d.Operators {
		op := &d.Operators[i]
		if op.ID == "" {
			c.addf("operator %d has no id", i)
			continue
		}
		c.width("operator", op.ID, op.Width)
		if _, dup := byID[op.ID]; dup {
			c.addf("duplicate operator id %q", op.ID)
			continue
		}
		spec, ok := reg.Lookup(op.Type)
		if !ok {
			c.addf("operator %q has unknown type %q", op.ID, op.Type)
			continue
		}
		if c.fanIn(op, drivers) {
			continue
		}
		ps := spec.Ports(paramsOf(op, d.Width))
		byID[op.ID] = int32(len(insts))
		insts = append(insts, instance{ps, nports})
		nports += len(ps)
		if len(ps) > scanPorts {
			nlong += len(ps)
		}
	}
	long := make(map[portKey]int32, nlong) // -> index in the instance's ports
	for i, in := range insts {
		if len(in.ports) <= scanPorts {
			continue
		}
		for j, ps := range in.ports {
			long[portKey{int32(i), ps.Name}] = int32(j)
		}
	}
	// portOf finds a port of instance i. A name listed twice resolves to
	// its last entry, in the list as in the map.
	portOf := func(i int32, port string) (int32, bool) {
		ps := insts[i].ports
		if len(ps) > scanPorts {
			j, ok := long[portKey{i, port}]
			return j, ok
		}
		for j := len(ps) - 1; j >= 0; j-- {
			if ps[j].Name == port {
				return int32(j), true
			}
		}
		return 0, false
	}

	// lookup resolves an endpoint to its port spec and its number among
	// all ports, reporting why it cannot.
	lookup := func(ep string, at site) (operators.PortSpec, int, bool) {
		id, port, ok := endpoint(ep)
		if !ok {
			c.addf("%s: malformed endpoint %q", at.label(d), ep)
			return operators.PortSpec{}, 0, false
		}
		i, ok := byID[id]
		if !ok {
			c.addf("%s: unknown instance %q", at.label(d), id)
			return operators.PortSpec{}, 0, false
		}
		j, ok := portOf(i, port)
		if !ok {
			c.addf("%s: instance %q has no port %q", at.label(d), id, port)
			return operators.PortSpec{}, 0, false
		}
		return insts[i].ports[j], insts[i].first + int(j), true
	}
	driven := make([]site, nports) // port number -> its driver
	sinkOK := func(ep string, at site) {
		spec, n, ok := lookup(ep, at)
		if !ok {
			return
		}
		if spec.Dir != operators.In {
			c.addf("%s: endpoint %q is not an input", at.label(d), ep)
			return
		}
		if prev := driven[n]; prev.kind != siteNone {
			c.addf("%s: endpoint %q already driven by %s", at.label(d), ep, prev.label(d))
			return
		}
		driven[n] = at
	}
	srcOK := func(ep string, at site) {
		spec, _, ok := lookup(ep, at)
		if ok && spec.Dir != operators.Out {
			c.addf("%s: endpoint %q is not an output", at.label(d), ep)
		}
	}

	for i, cn := range d.Connections {
		srcOK(cn.From, site{siteFrom, int32(i)})
		sinkOK(cn.To, site{siteTo, int32(i)})
	}
	ctlSeen := make(map[string]bool, len(d.Controls))
	for i, ctl := range d.Controls {
		if ctlSeen[ctl.Name] {
			c.addf("duplicate control %q", ctl.Name)
		}
		ctlSeen[ctl.Name] = true
		c.width("control", ctl.Name, ctl.Width)
		if len(ctl.Targets) == 0 {
			c.addf("control %q has no targets", ctl.Name)
		}
		for _, to := range ctl.Targets {
			sinkOK(to.Port, site{siteControl, int32(i)})
		}
	}
	stSeen := make(map[string]bool, len(d.Statuses))
	for i, st := range d.Statuses {
		if stSeen[st.Name] {
			c.addf("duplicate status %q", st.Name)
		}
		stSeen[st.Name] = true
		c.width("status", st.Name, st.Width)
		srcOK(st.From, site{siteStatus, int32(i)})
	}
	return c.err()
}

// paramsOf converts an operator element to elaboration parameters.
func paramsOf(op *Operator, defaultWidth int) operators.Params {
	w := op.Width
	if w <= 0 {
		w = defaultWidth
	}
	if w <= 0 {
		w = 32
	}
	return operators.Params{Width: w, Value: op.Value, Depth: op.Depth, Inputs: op.Inputs}
}

// ParamsOf exposes the operator→params conversion for elaboration.
func ParamsOf(op *Operator, defaultWidth int) operators.Params {
	return paramsOf(op, defaultWidth)
}

// ValidateFSM checks the control unit: exactly one initial state, unique
// state names, transitions to known states, assignments to declared
// outputs, signal widths the kernel can carry, no duplicate
// declarations, and at least one final state.
func ValidateFSM(f *FSM) error {
	c := &checker{doc: "fsm " + f.Name}
	states := map[string]bool{}
	initials, finals := 0, 0
	for _, s := range f.States {
		if states[s.Name] {
			c.addf("duplicate state %q", s.Name)
		}
		states[s.Name] = true
		if s.Initial {
			initials++
		}
		if s.Final {
			finals++
		}
	}
	if initials != 1 {
		c.addf("need exactly one initial state, have %d", initials)
	}
	if finals == 0 {
		c.addf("need at least one final state")
	}
	inputs := map[string]bool{}
	for _, in := range f.Inputs {
		if inputs[in.Name] {
			c.addf("duplicate input %q", in.Name)
		}
		inputs[in.Name] = true
		c.width("input", in.Name, in.Width)
	}
	outputs := map[string]bool{}
	for _, out := range f.Outputs {
		if outputs[out.Name] {
			c.addf("duplicate output %q", out.Name)
		}
		outputs[out.Name] = true
		c.width("output", out.Name, out.Width)
	}
	for _, s := range f.States {
		for _, a := range s.Assigns {
			if !outputs[a.Signal] {
				c.addf("state %q assigns undeclared output %q", s.Name, a.Signal)
			}
		}
		for i, tr := range s.Transitions {
			if !states[tr.Next] {
				c.addf("state %q transition to unknown state %q", s.Name, tr.Next)
			}
			if tr.Cond == "" && i != len(s.Transitions)-1 {
				c.addf("state %q has an unconditional transition that is not last", s.Name)
			}
		}
		if !s.Final && len(s.Transitions) == 0 {
			c.addf("non-final state %q has no transitions", s.Name)
		}
	}
	return c.err()
}

// ValidateRTG checks the reconfiguration graph: start node exists,
// transitions reference known configurations, configuration ids unique,
// shared memories unique with positive depth and a width the kernel can
// carry.
func ValidateRTG(r *RTG) error {
	c := &checker{doc: "rtg " + r.Name}
	cfgs := map[string]bool{}
	for _, cfg := range r.Configurations {
		if cfgs[cfg.ID] {
			c.addf("duplicate configuration %q", cfg.ID)
		}
		cfgs[cfg.ID] = true
		if cfg.Datapath == "" || cfg.FSM == "" {
			c.addf("configuration %q must reference a datapath and an fsm", cfg.ID)
		}
	}
	if len(r.Configurations) == 0 {
		c.addf("rtg has no configurations")
	}
	if !cfgs[r.Start] {
		c.addf("start configuration %q not defined", r.Start)
	}
	from := map[string]bool{}
	for _, t := range r.Transitions {
		if !cfgs[t.From] {
			c.addf("transition from unknown configuration %q", t.From)
		}
		if !cfgs[t.To] {
			c.addf("transition to unknown configuration %q", t.To)
		}
		if from[t.From] {
			c.addf("configuration %q has more than one outgoing transition", t.From)
		}
		from[t.From] = true
	}
	mems := map[string]bool{}
	for _, m := range r.Memories {
		if mems[m.ID] {
			c.addf("duplicate memory %q", m.ID)
		}
		mems[m.ID] = true
		if m.Depth <= 0 {
			c.addf("memory %q needs a positive depth", m.ID)
		}
		c.width("memory", m.ID, m.Width)
	}
	return c.err()
}

// ValidateDesign validates the RTG, every referenced document, and the
// cross-references between them (configuration→datapath/fsm resolution,
// ram Ref→shared memory). Control/status name alignment is checked at
// elaboration time where the FSM is bound to a datapath.
func ValidateDesign(d *Design, reg *operators.Registry) error {
	c := &checker{doc: "design " + d.RTG.Name}
	if err := ValidateRTG(d.RTG); err != nil {
		c.addf("%v", err)
	}
	for _, cfg := range d.RTG.Configurations {
		dp, ok := d.Datapaths[cfg.Datapath]
		if !ok {
			c.addf("configuration %q references missing datapath %q", cfg.ID, cfg.Datapath)
			continue
		}
		fsm, ok := d.FSMs[cfg.FSM]
		if !ok {
			c.addf("configuration %q references missing fsm %q", cfg.ID, cfg.FSM)
			continue
		}
		if err := ValidateDatapath(dp, reg); err != nil {
			c.addf("%v", err)
		}
		if err := ValidateFSM(fsm); err != nil {
			c.addf("%v", err)
		}
		for i := range dp.Operators {
			op := &dp.Operators[i]
			if op.Ref != "" {
				if _, ok := d.RTG.FindMemory(op.Ref); !ok {
					c.addf("datapath %q: operator %q references unknown shared memory %q",
						dp.Name, op.ID, op.Ref)
				}
			}
		}
	}
	return c.err()
}
