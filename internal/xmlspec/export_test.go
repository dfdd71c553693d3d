package xmlspec

// ValidateDatapathOracle exposes the seed validator to the external
// fuzz and allocation tests, which compile real designs and so cannot
// live in this package.
var ValidateDatapathOracle = validateDatapathOracle

// ProblemDatapaths returns the test fixture and each of its problem
// mutations, as fuzz corpus seeds.
func ProblemDatapaths() []*Datapath {
	out := []*Datapath{smallDatapath()}
	for _, p := range datapathProblems {
		dp := smallDatapath()
		p.mutate(dp)
		out = append(out, dp)
	}
	return out
}
