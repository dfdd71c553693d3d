package flow

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memfile"
	"repro/internal/rtg"
	"repro/internal/xmlspec"
	"repro/internal/xsl"
)

// Source is the pipeline's entry value: one MiniJ function with its
// design parameters and initial memory contents.
type Source struct {
	Name       string // case name; defaults to Func
	Text       string // MiniJ source text
	Func       string // function to compile
	ArraySizes map[string]int
	ScalarArgs map[string]int64
	Inputs     map[string][]int64
	// Expected optionally pins exact expected contents per array,
	// checked on top of the golden interpreter's result (the paper's
	// flow); an array matching the interpreter but not its pin fails.
	Expected map[string][]int64
}

func (s Source) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Func
}

// PartitionInfo reports one compiled configuration's size: the Table I
// operator and state columns. The line-count columns are rendered on
// demand by Compiled.LoC.
type PartitionInfo struct {
	ID        string
	Datapath  string
	FSM       string
	Operators int
	States    int
}

// PartitionLoC is one configuration's Table I line counts: the
// non-blank lines of its datapath XML, its FSM XML and the Java the
// FSM→Java stylesheet renders from that FSM.
type PartitionLoC struct {
	ID             string
	XMLDatapathLoC int
	XMLFSMLoC      int
	JavaFSMLoC     int
}

// Compiled is the result of the compile stage: the design in the three
// XML dialects plus its size metadata and any written artifacts.
type Compiled struct {
	Source     Source
	Design     *xmlspec.Design
	Func       *lang.Func
	Partitions []PartitionInfo
	SourceLoC  int
	TotalOps   int
	Artifacts  map[string]string // label -> path (when WorkDir set)
}

// LoC renders every partition's datapath and FSM to XML and the FSM to
// Java, and returns their line counts in Partitions order. The compile
// stage does not render these views, so only a reader of the Table I
// columns pays for them.
func (c *Compiled) LoC() ([]PartitionLoC, error) {
	out := make([]PartitionLoC, 0, len(c.Partitions))
	for _, pi := range c.Partitions {
		dpDoc, err := xmlspec.Marshal(c.Design.Datapaths[pi.Datapath])
		if err != nil {
			return nil, err
		}
		fsmDoc, err := xmlspec.Marshal(c.Design.FSMs[pi.FSM])
		if err != nil {
			return nil, err
		}
		javaOut, err := xsl.TransformBytes(xsl.FSMToJava(), fsmDoc)
		if err != nil {
			return nil, err
		}
		out = append(out, PartitionLoC{
			ID:             pi.ID,
			XMLDatapathLoC: xmlspec.LineCount(dpDoc),
			XMLFSMLoC:      xmlspec.LineCount(fsmDoc),
			JavaFSMLoC:     countLines(javaOut),
		})
	}
	return out, nil
}

// Compile parses and compiles the source into its design and — when a
// WorkDir is configured — writes the XML bundle, the initial memory
// files and (with WithArtifacts) the dot/java/hds translations.
func (p *Pipeline) Compile(src Source) (*Compiled, error) { return p.compile(nil, src) }

func (p *Pipeline) compile(ctx context.Context, src Source) (*Compiled, error) {
	out := &Compiled{Source: src, Artifacts: map[string]string{}}
	err := p.observeStage(StageCompile, src.name(), func() error {
		if err := ctxErr(ctx, StageCompile, src.name()); err != nil {
			return err
		}
		prog, err := lang.Parse(src.Text)
		if err != nil {
			return err
		}
		out.SourceLoC = countLines(src.Text)
		comp, err := compiler.Compile(prog, src.Func, compiler.Config{
			Width:          p.cfg.Width,
			ArraySizes:     src.ArraySizes,
			ScalarArgs:     src.ScalarArgs,
			AutoPartitions: p.cfg.AutoPartitions,
		})
		if err != nil {
			return err
		}
		out.Design = comp.Design
		out.Func = comp.Func
		out.Partitions = make([]PartitionInfo, 0, len(comp.Meta))
		for _, meta := range comp.Meta {
			out.Partitions = append(out.Partitions, PartitionInfo{
				ID:        meta.ID,
				Datapath:  meta.Datapath,
				FSM:       meta.FSM,
				Operators: meta.Operators,
				States:    meta.States,
			})
			out.TotalOps += meta.Operators
		}
		if p.cfg.WorkDir == "" {
			return nil
		}
		dir := filepath.Join(p.cfg.WorkDir, src.name())
		files, err := WriteDesignArtifacts(comp.Design, dir, p.cfg.EmitArtifacts)
		if err != nil {
			return err
		}
		for label, path := range files {
			out.Artifacts[label] = path
		}
		for name, depth := range src.ArraySizes {
			words := make([]int64, depth)
			copy(words, src.Inputs[name])
			path := filepath.Join(dir, name+".mem")
			if err := memfile.Save(path, words, "initial contents of "+name); err != nil {
				return err
			}
			out.Artifacts["mem-in:"+name] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SimResult is the outcome of the simulate stage: the per-configuration
// run records and a snapshot of every shared memory.
type SimResult struct {
	Runs        []rtg.ConfigRun
	Completed   bool
	TotalCycles uint64
	Events      uint64
	SimWall     time.Duration      // sum of per-configuration simulation walls
	Memories    map[string][]int64 // final shared-memory contents
	Artifacts   map[string]string  // mem:<name> output files (when WorkDir set)
}

// Verdict is the outcome of the verify stage: the paper's pass
// criterion, memory contents against the golden interpreter.
type Verdict struct {
	Passed     bool
	Mismatches map[string][]memfile.Mismatch
	RefWall    time.Duration
	RefSteps   uint64
}

// Failed lists the arrays with mismatches.
func (v *Verdict) Failed() []string {
	var out []string
	for name, ms := range v.Mismatches {
		if len(ms) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// Verify runs the golden interpreter on copies of the same inputs and
// compares every array's simulated contents against it; arrays with
// pinned Expected contents are additionally checked against the pin, so
// a reference model that diverges from the interpreter fails the case
// instead of silently overriding it.
func (p *Pipeline) Verify(c *Compiled, s *SimResult) (*Verdict, error) { return p.verify(nil, c, s) }

func (p *Pipeline) verify(ctx context.Context, c *Compiled, s *SimResult) (*Verdict, error) {
	v := &Verdict{Mismatches: map[string][]memfile.Mismatch{}}
	err := p.observeStage(StageVerify, c.Source.name(), func() error {
		if err := ctxErr(ctx, StageVerify, c.Source.name()); err != nil {
			return err
		}
		ref := map[string][]int64{}
		for name, depth := range c.Source.ArraySizes {
			words := make([]int64, depth)
			copy(words, c.Source.Inputs[name])
			ref[name] = words
		}
		start := time.Now()
		ri, err := interp.Run(c.Func, ref, c.Source.ScalarArgs, interp.Options{})
		if err != nil {
			return err
		}
		v.RefWall = time.Since(start)
		v.RefSteps = ri.Steps
		v.Passed = true
		for name := range c.Source.ArraySizes {
			actual, ok := s.Memories[name]
			if !ok {
				return fmt.Errorf("flow: verify %s: no simulated memory %q", c.Source.name(), name)
			}
			ms := memfile.Compare(ref[name], actual, 0)
			if pinned := c.Source.Expected[name]; pinned != nil && len(ms) == 0 {
				ms = memfile.Compare(pinned, actual, 0)
			}
			v.Mismatches[name] = ms
			if len(ms) > 0 {
				v.Passed = false
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Outcome bundles every stage value of one full pipeline run.
type Outcome struct {
	Compiled *Compiled
	Sim      *SimResult
	Verdict  *Verdict // nil when the simulation did not complete
}

// OK reports a completed, verified run.
func (o *Outcome) OK() bool { return o.Verdict != nil && o.Verdict.Passed }

// Run executes the full flow — compile, elaborate, simulate, verify —
// for one source. An incomplete simulation (cycle cap) yields a nil
// Verdict, not an error. To run the same source repeatedly, use Prepare
// and call Run on the PreparedDesign: it amortizes the compile and
// elaborate stages across rounds.
func (p *Pipeline) Run(src Source) (*Outcome, error) {
	d, err := p.Prepare(src)
	if err != nil {
		return nil, err
	}
	return d.Run()
}

// countLines counts non-blank lines.
func countLines(s string) int {
	n := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			line := s[start:i]
			start = i + 1
			if nonBlank(line) {
				n++
			}
		}
	}
	return n
}

func nonBlank(line string) bool {
	for i := 0; i < len(line); i++ {
		if line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
			return true
		}
	}
	return false
}
