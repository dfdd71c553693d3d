package compiler

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/workloads"
)

// FuzzFrontEnd feeds fuzzed MiniJ source through the whole front end:
// lang.Parse, then lang.Analyze, then Compile on every function. Each
// step must return an error or succeed; none may panic. Array and
// scalar parameters get fixed sizes (8 words, value 4), so only the
// source text is fuzzed and nothing large is allocated. The seeds are
// the workload families' sources; the crashers found so far live in
// testdata/fuzz/.
func FuzzFrontEnd(f *testing.F) {
	for _, w := range workloads.Default.All() {
		v, err := workloads.Resolve(w, nil)
		if err != nil {
			f.Fatal(err)
		}
		src, _ := w.Source(v)
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		if _, err := lang.Analyze(prog); err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			cfg := Config{ArraySizes: map[string]int{}, ScalarArgs: map[string]int64{}}
			for _, p := range fn.Params {
				if p.IsArray {
					cfg.ArraySizes[p.Name] = 8
				} else {
					cfg.ScalarArgs[p.Name] = 4
				}
			}
			Compile(prog, fn.Name, cfg) // an error is a fine outcome; a panic is not
		}
	})
}
