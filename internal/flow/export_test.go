package flow

import "repro/internal/rtg"

// ControllerOptions exposes the options a prepared design's controller
// runs with, for the flow defaults test.
func (d *PreparedDesign) ControllerOptions() rtg.Options { return d.ctl.Options() }
