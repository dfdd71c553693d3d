package sweep_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// FuzzSweepRequest runs the steps simd takes on a POSTed
// /v1/sweep/sharded body before it writes a byte: decode the request,
// load its spec, locate the shard and, when the shard holds at most 64
// cases, materialize it. Every input must end in an error or a
// campaign, never a panic or a hang, and an accepted shard index must
// give a range inside [0, Cases()]. The seeds are every
// examples/sweeps spec wrapped in a request.
func FuzzSweepRequest(f *testing.F) {
	specs, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil || len(specs) == 0 {
		f.Fatalf("no sweep examples to seed from (err=%v)", err)
	}
	for _, path := range specs {
		spec, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, shard := range []int{0, 1} {
			f.Add([]byte(fmt.Sprintf(`{"schema_version":%d,"spec":%s,"shard":%d}`, api.SchemaVersion, spec, shard)))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := api.DecodeSweepRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		c, err := sweep.Load(&req.Spec, workloads.Default)
		if err != nil {
			return
		}
		sh, err := c.ShardAt(req.Shard)
		if err != nil {
			return
		}
		if sh.From < 0 || sh.From > sh.To || sh.To > c.Cases() {
			t.Fatalf("shard %d of %d cases spans [%d, %d)", req.Shard, c.Cases(), sh.From, sh.To)
		}
		if sh.To-sh.From <= 64 {
			c.MaterializeRange(sh.From, sh.To) // an error is a fine outcome; a panic is not
		}
	})
}
