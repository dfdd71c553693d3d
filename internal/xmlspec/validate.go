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

// ValidateDatapath checks structural sanity against the operator registry:
// widths the kernel can carry, known types, unique ids, endpoints
// referencing real instance ports with compatible directions, and single
// drivers per sink port.
func ValidateDatapath(d *Datapath, reg *operators.Registry) error {
	c := &checker{doc: "datapath " + d.Name}
	c.width("datapath", d.Name, d.Width)
	ports := map[string]map[string]operators.PortSpec{} // inst -> port -> spec
	for i := range d.Operators {
		op := &d.Operators[i]
		if op.ID == "" {
			c.addf("operator %d has no id", i)
			continue
		}
		c.width("operator", op.ID, op.Width)
		if _, dup := ports[op.ID]; dup {
			c.addf("duplicate operator id %q", op.ID)
			continue
		}
		spec, ok := reg.Lookup(op.Type)
		if !ok {
			c.addf("operator %q has unknown type %q", op.ID, op.Type)
			continue
		}
		pm := map[string]operators.PortSpec{}
		for _, ps := range spec.Ports(paramsOf(op, d.Width)) {
			pm[ps.Name] = ps
		}
		ports[op.ID] = pm
	}

	driven := map[string]string{} // sink endpoint -> driver description
	sinkOK := func(ep, what string) {
		inst, port, ok := endpoint(ep)
		if !ok {
			c.addf("%s: malformed endpoint %q", what, ep)
			return
		}
		pm, ok := ports[inst]
		if !ok {
			c.addf("%s: unknown instance %q", what, inst)
			return
		}
		spec, ok := pm[port]
		if !ok {
			c.addf("%s: instance %q has no port %q", what, inst, port)
			return
		}
		if spec.Dir != operators.In {
			c.addf("%s: endpoint %q is not an input", what, ep)
			return
		}
		if prev, dup := driven[ep]; dup {
			c.addf("%s: endpoint %q already driven by %s", what, ep, prev)
			return
		}
		driven[ep] = what
	}
	srcOK := func(ep, what string) {
		inst, port, ok := endpoint(ep)
		if !ok {
			c.addf("%s: malformed endpoint %q", what, ep)
			return
		}
		pm, ok := ports[inst]
		if !ok {
			c.addf("%s: unknown instance %q", what, inst)
			return
		}
		spec, ok := pm[port]
		if !ok {
			c.addf("%s: instance %q has no port %q", what, inst, port)
			return
		}
		if spec.Dir != operators.Out {
			c.addf("%s: endpoint %q is not an output", what, ep)
		}
	}

	for _, cn := range d.Connections {
		srcOK(cn.From, "connect from="+cn.From)
		sinkOK(cn.To, "connect to="+cn.To)
	}
	ctlSeen := map[string]bool{}
	for _, ctl := range d.Controls {
		if ctlSeen[ctl.Name] {
			c.addf("duplicate control %q", ctl.Name)
		}
		ctlSeen[ctl.Name] = true
		c.width("control", ctl.Name, ctl.Width)
		if len(ctl.Targets) == 0 {
			c.addf("control %q has no targets", ctl.Name)
		}
		for _, to := range ctl.Targets {
			sinkOK(to.Port, "control "+ctl.Name)
		}
	}
	stSeen := map[string]bool{}
	for _, st := range d.Statuses {
		if stSeen[st.Name] {
			c.addf("duplicate status %q", st.Name)
		}
		stSeen[st.Name] = true
		c.width("status", st.Name, st.Width)
		srcOK(st.From, "status "+st.Name)
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
