package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/api"
	"repro/internal/scenario"
)

// Shard file states, as classified by InspectShard. Only Valid shards
// are merged; everything else is resumable work (a newer schema
// version is the one fatal case, returned as an error instead).
const (
	// StateValid: header matches the campaign, every case line is
	// covered by a footer whose digest and count agree.
	StateValid = "valid"
	// StateMissing: the shard file does not exist yet.
	StateMissing = "missing"
	// StateTorn: the file exists but is incomplete or corrupt — no
	// footer, a half-written line, a digest mismatch. The signature a
	// killed or interrupted worker leaves behind.
	StateTorn = "torn"
	// StateForeign: a structurally complete shard file for the wrong
	// campaign, layout, shard index or backend — e.g. a duplicated
	// shard copied over another's path.
	StateForeign = "foreign"
)

// ShardInfo is InspectShard's classification of one shard file.
type ShardInfo struct {
	State  string
	Cases  int    // case lines counted (valid files only)
	Reason string // human detail for non-valid states
}

// The footer digest is FNV-1a (hash/fnv) over every case line
// including its trailing newline, in file order.
var newline = []byte{'\n'}

// ExecuteShard runs shard sh of the campaign and streams its shard
// records to w: the shard header, one trace-case line per case in
// index order (scenario.Stream), and the footer with the case count and
// line digest. The injector, if non-nil, may kill the execution
// mid-shard; a nil injector runs clean.
func ExecuteShard(ctx context.Context, c *Campaign, sh Shard, w io.Writer, inj *Injector) error {
	if inj.flakyFires(sh.Index) {
		// A flaky worker fails before writing anything — the signature of
		// a refused connection, attributed to the endpoint, not the shard.
		return EndpointFault(fmt.Errorf("sweep: shard %d: injected flaky failure", sh.Index))
	}
	runs, err := c.MaterializeRange(sh.From, sh.To)
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(c.ShardHeader(sh))
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("sweep: write shard %d: %w", sh.Index, err)
	}
	if inj.blackholesShard(sh.Index) {
		// Accept-then-hang: the header is written (the work was accepted)
		// and then nothing happens until the attempt is cancelled — by a
		// winning hedge, a shard timeout, or the pass ending.
		<-ctx.Done()
		return EndpointFault(fmt.Errorf("sweep: shard %d: blackholed: %w", sh.Index, ctx.Err()))
	}
	if d := inj.slowsShard(sh.Index); d > 0 {
		if !sleepCtx(ctx, d) {
			return ctx.Err()
		}
	}
	n := len(runs)
	if inj.killsShard(sh.Index) {
		n = len(runs) / 2
	}
	digest := fnv.New64a()
	opts := scenario.Options{Backend: c.Backend, Width: c.Width}
	if _, err := scenario.Stream(ctx, runs[:n], opts, io.MultiWriter(w, digest)); err != nil {
		return fmt.Errorf("sweep: shard %d: %w", sh.Index, err)
	}
	if n < len(runs) {
		// Mid-shard worker death: a subprocess injector exits the process
		// here; in-process execution returns an error, leaving the file
		// torn (no footer) exactly like a killed worker would.
		inj.exit(FaultExitCode)
		return fmt.Errorf("sweep: shard %d: injected kill after %d/%d cases", sh.Index, n, len(runs))
	}
	ftr, err := json.Marshal(api.ShardResult{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordShardResult,
		Shard:         sh.Index,
		Cases:         len(runs),
		Digest:        fmt.Sprintf("%016x", digest.Sum64()),
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(ftr, '\n')); err != nil {
		return fmt.Errorf("sweep: write shard %d: %w", sh.Index, err)
	}
	return nil
}

// ExecuteShardFile executes shard sh into path: the shared body of the
// in-process worker and the `sweep worker` subprocess. The file is
// written in place (not atomically renamed) on purpose — an
// interrupted execution must leave a torn file for InspectShard to
// classify, exactly like a crashed worker. A truncate fault, if armed
// for this shard, chops the completed file mid-case to simulate a
// write torn by the filesystem.
func ExecuteShardFile(ctx context.Context, c *Campaign, sh Shard, path string, inj *Injector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = ExecuteShard(ctx, c, sh, bw, inj)
	if ferr := bw.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("sweep: write shard %d: %w", sh.Index, ferr)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("sweep: close shard %d: %w", sh.Index, cerr)
	}
	if err != nil {
		return err
	}
	if inj.truncatesShard(sh.Index) {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("sweep: truncate fault: %w", err)
		}
		if err := os.Truncate(path, st.Size()*2/3); err != nil {
			return fmt.Errorf("sweep: truncate fault: %w", err)
		}
	}
	return nil
}

// InspectShard classifies the shard file at path against the header an
// honest worker for this shard would have written. Every corruption
// mode maps to a resumable state; the only error return is a shard
// written by a newer schema version, which re-executing would not fix.
func InspectShard(path string, want api.ShardHeader) (ShardInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ShardInfo{State: StateMissing, Reason: "no shard file"}, nil
		}
		return ShardInfo{}, fmt.Errorf("sweep: inspect shard %d: %w", want.Shard, err)
	}
	defer f.Close()

	torn := func(format string, args ...interface{}) (ShardInfo, error) {
		return ShardInfo{State: StateTorn, Reason: fmt.Sprintf(format, args...)}, nil
	}
	// A shard file is small (one trace line per case); read it whole and
	// require a trailing newline — a file cut mid-line has none.
	data, err := io.ReadAll(f)
	if err != nil {
		return ShardInfo{}, fmt.Errorf("sweep: inspect shard %d: %w", want.Shard, err)
	}
	if len(data) == 0 {
		return torn("empty shard file")
	}
	if data[len(data)-1] != '\n' {
		return torn("last line torn (no trailing newline)")
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))

	var hdr api.ShardHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Record != api.RecordShardHeader {
		return torn("first line is not a shard header")
	}
	if err := api.CheckVersion(hdr.SchemaVersion); err != nil {
		return ShardInfo{}, fmt.Errorf("sweep: shard file %s: %w", path, err)
	}
	if hdr.Campaign != want.Campaign || hdr.CampaignDigest != want.CampaignDigest ||
		hdr.Shard != want.Shard || hdr.Shards != want.Shards ||
		hdr.From != want.From || hdr.To != want.To || hdr.Backend != want.Backend {
		return ShardInfo{State: StateForeign,
			Reason: fmt.Sprintf("header %+v does not match campaign shard %+v", hdr, want)}, nil
	}
	if len(lines) < 2 {
		return torn("no footer")
	}

	var ftr api.ShardResult
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &ftr); err != nil || ftr.Record != api.RecordShardResult {
		return torn("no footer (worker interrupted mid-shard)")
	}
	if err := api.CheckVersion(ftr.SchemaVersion); err != nil {
		return ShardInfo{}, fmt.Errorf("sweep: shard file %s: %w", path, err)
	}
	caseLines := lines[1 : len(lines)-1]
	digest := fnv.New64a()
	for _, line := range caseLines {
		digest.Write(line)
		digest.Write(newline)
	}
	if ftr.Shard != want.Shard || ftr.Cases != len(caseLines) || ftr.Cases != want.To-want.From {
		return torn("footer covers %d cases of shard %d, want %d of shard %d",
			ftr.Cases, ftr.Shard, want.To-want.From, want.Shard)
	}
	if got := fmt.Sprintf("%016x", digest.Sum64()); ftr.Digest != got {
		return torn("footer digest %s does not match case lines (%s)", ftr.Digest, got)
	}
	return ShardInfo{State: StateValid, Cases: ftr.Cases}, nil
}
