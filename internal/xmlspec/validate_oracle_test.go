package xmlspec

import "repro/internal/operators"

// validateDatapathOracle is the seed's ValidateDatapath body, kept as a
// test-only reference model: one port map per operator and one label
// string per endpoint, built whether or not a problem is reported. The
// one addition is the mux fan-in guard, which runs where the production
// validator runs it. FuzzValidateDatapath requires the production
// validator to report exactly what this one reports.
func validateDatapathOracle(d *Datapath, reg *operators.Registry) error {
	c := &checker{doc: "datapath " + d.Name}
	c.width("datapath", d.Name, d.Width)
	drivers := len(d.Connections)
	for i := range d.Controls {
		drivers += len(d.Controls[i].Targets)
	}
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
		if c.fanIn(op, drivers) {
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
