package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// maxShardCases caps the case range of one posted sweep shard.
// Campaigns bigger than that submit more shards, not bigger ones.
const maxShardCases = 4096

// handleShardedSweep serves POST /v1/sweep/sharded: the body is an
// api.SweepRequest naming a campaign spec and one shard index; the
// response streams that shard's records — shard header, one trace-case
// line per case, footer — exactly as a local worker would write them
// to a shard file. The server loads the spec against the default
// workload registry and the campaign's own backend resolution (not the
// server default): the digest in the shard header must match what the
// coordinator computed, or resume validation would classify every
// remote shard foreign.
//
// Spec, shard-index and size errors surface as 4xx before the first
// byte. Once streaming starts, an execution error simply ends the
// stream early: the client's shard file is left without a footer —
// torn — and the coordinator's retry/resume machinery takes over, the
// same contract a killed local worker has.
func (s *Server) handleShardedSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST an api.SweepRequest", http.StatusMethodNotAllowed)
		return
	}
	if retry, ok := s.bucket.take(); !ok {
		s.reject(w, retry, "rate limit exceeded")
		return
	}
	req, err := api.DecodeSweepRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, err := sweep.Load(&req.Spec, workloads.Default)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sh, err := c.ShardAt(req.Shard)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if size := sh.To - sh.From; size > maxShardCases {
		http.Error(w, fmt.Sprintf("simd: shard %d spans %d cases, exceeding the per-shard cap %d",
			sh.Index, size, maxShardCases), http.StatusBadRequest)
		return
	}
	// Materialize the shard now: an invalid draw surfaces as a 400
	// instead of a torn stream. ExecuteShard re-materializes from the
	// same spec, so what it runs is exactly what was validated here.
	if _, err := c.MaterializeRange(sh.From, sh.To); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case s.tickets <- struct{}{}:
	default:
		s.reject(w, time.Second, "server at capacity")
		return
	}
	defer func() { <-s.tickets }()
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	ctx := r.Context()
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		s.failed.Add(1)
		return // client gone while queued
	}
	defer func() { <-s.workers }()

	w.Header().Set("Content-Type", "application/x-ndjson")
	fw := flushWriter{w: w}
	fw.f, _ = w.(http.Flusher)
	if err := sweep.ExecuteShard(ctx, c, sh, fw, nil); err != nil {
		s.failed.Add(1)
		return
	}
	s.sweepShards.Add(1)
	s.sweepShardCases.Add(int64(sh.To - sh.From))
}

// ShardedSweep posts one shard job and copies the streamed shard
// records to w verbatim — byte-preserving, because those bytes are
// what the shard footer's digest covers and what the merge emits.
func (c *Client) ShardedSweep(ctx context.Context, req api.SweepRequest, w io.Writer) error {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathShardedSweep, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("simd: sharded sweep stream: %w", err)
	}
	return nil
}

// ShardWorker executes sweep shards on one remote simd server. An
// interrupted stream leaves a torn shard file for the coordinator's
// retry/resume machinery, identical to a crashed local worker.
type ShardWorker struct {
	Client *Client
}

// Name implements sweep.Worker.
func (sw *ShardWorker) Name() string { return "remote" }

// RunShard implements sweep.Worker: stream the shard from the remote
// server straight into the shard file. Failures are classified for
// the dispatch layer: a 400/422 means the spec itself was rejected —
// permanent, no server will ever accept it — while transport errors,
// interrupted streams, overload sheds and 5xx are the endpoint's
// fault and requeue for a different server without charging the
// shard's retry budget.
func (sw *ShardWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	req := api.SweepRequest{Spec: *c.Spec, Shard: sh.Index}
	err = sw.Client.ShardedSweep(ctx, req, f)
	cerr := f.Close()
	if err != nil {
		return classifyRemoteError(err)
	}
	return cerr
}

// classifyRemoteError attributes a remote shard failure: permanent
// for spec rejections (4xx other than timeout/overload), endpoint
// fault for everything the server side or the network did wrong.
func classifyRemoteError(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.Status == http.StatusRequestTimeout:
			return sweep.EndpointFault(err)
		case se.Status >= 400 && se.Status < 500:
			return sweep.Permanent(err)
		default:
			return sweep.EndpointFault(err)
		}
	}
	// OverloadedError (429), transport failures, torn streams: the
	// endpoint's problem, not the shard's.
	return sweep.EndpointFault(err)
}

// Endpoints gives each server its own ShardWorker as an independently
// health-tracked endpoint admitting slots concurrent shards — the
// fleet form the dispatch layer's circuit breakers and hedging want.
func Endpoints(clients []*Client, slots int) []sweep.Endpoint {
	eps := make([]sweep.Endpoint, len(clients))
	for i, cl := range clients {
		eps[i] = sweep.Endpoint{
			Worker: &ShardWorker{Client: cl},
			Name:   fmt.Sprintf("remote[%d] %s", i, cl.BaseURL()),
			Slots:  slots,
		}
	}
	return eps
}

// flushWriter flushes the HTTP response after every write so each
// shard record reaches the client as it is produced.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
