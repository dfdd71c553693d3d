package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/simd"
	"repro/internal/workloads"
)

const simdBackend = "twolevel"

var simdVerify = workload{
	name:    "simd-verify",
	backend: simdBackend,
	op:      "one /v1/verify request (one round) to an in-process simd.Server; the case is the request (closed loop, 1 client on a keep-alive connection, seeded sequence over 8 keys warmed in set-up)",
	why:     "the only workload on the replay-hit path and the simd/api layers: every timed request is a pool hit, so time goes to admission, netlist reset plus hades replay, interp verify and NDJSON over loopback HTTP",
	// The verify stage and the reset run inside the server's sessions,
	// which take no flow observers.
	unobserved: []string{"flow.verify_ms", "flow.verify_allocs", "interp.ms", "interp.steps", "netlist.elaborate_ms"},
	opSelf:     "simd.transport_ms",
	setup:      setupSimd,
}

// simdPerKeyPerPass is how many requests one pass sends on each key.
const simdPerKeyPerPass = 8

// simdBands give the server's pooled keys, one antithetic pair per
// family: 8 keys, simd's default MaxSessions, so no timed request
// evicts a session. Requests cost about the same (median 7 ms, 90th
// percentile 8 ms on a 2-vCPU x86-64 host), so the latency percentiles
// do not sit on the edge between two keys' clusters; FDCT2 brings a
// two-configuration replay.
var simdBands = []band{
	{family: "fir", size: "n", lo: 64, hi: 96, fixed: workloads.Values{"taps": 6}},
	{family: "newton", size: "n", lo: 48, hi: 64, fixed: workloads.Values{"iters": 10}},
	{family: "erasure", size: "stripes", lo: 20, hi: 28, fixed: workloads.Values{"k": 6}},
	{family: "fdct2", size: "pixels", lo: 128, hi: 192, step: 64},
}

type simdBench struct {
	srv    *simd.Server
	hs     *http.Server
	served chan error
	client *simd.Client
	tp     *http.Transport
	reqs   []api.Request // one per key
	seq    []int         // the pass's request sequence, as key indices

	stats0 *api.ServerStats // server counters when the traced region began

	mu       sync.Mutex
	handlers map[int64]handlerSpan // by op id
	bytes    int64
}

type handlerSpan struct{ start, end time.Time }

// opHeader carries a traced op's id from the client to the server's
// span middleware.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// opTransport stamps the op id of a traced request's context on the
// request.
type opTransport struct{ next http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op, ok := req.Context().Value(opKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	return t.next.RoundTrip(req)
}

func setupSimd(ctx context.Context, e *env) (bench, error) {
	r := newRNG(e.seed, "simd-verify")
	b := &simdBench{srv: simd.New(simd.Config{Workers: 1}), handlers: map[int64]handlerSpan{}}
	for _, bd := range simdBands {
		for _, v := range bd.pairs(r, 1) {
			b.reqs = append(b.reqs, api.NewRequest(bd.family, v))
			for i := 0; i < simdPerKeyPerPass; i++ {
				b.seq = append(b.seq, len(b.reqs)-1)
			}
		}
	}
	r.shuffle(len(b.seq), func(i, j int) { b.seq[i], b.seq[j] = b.seq[j], b.seq[i] })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.hs = &http.Server{Handler: b.middleware(b.srv)}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.tp = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	b.client = simd.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: opTransport{b.tp}})
	// Warm every key: each prepares its pooled session once.
	for _, req := range b.reqs {
		if _, err := b.client.Verify(ctx, req); err != nil {
			b.close()
			return nil, fmt.Errorf("warm %s: %w", req.Workload, err)
		}
	}
	return b, nil
}

// middleware notes the interval of every traced request's
// Server.ServeHTTP call and counts the NDJSON bytes it writes.
func (b *simdBench) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		end := time.Now()
		// The client records the span: its reply ends only after this
		// handler has returned.
		b.mu.Lock()
		b.handlers[op] = handlerSpan{start, end}
		b.bytes += cw.n
		b.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (b *simdBench) pass(ctx context.Context, rec *recorder, tr *tracer) (counts, error) {
	if tr != nil && b.stats0 == nil {
		st := b.srv.Stats()
		b.stats0 = &st
	}
	var total counts
	for _, k := range b.seq {
		c, err := b.request(ctx, b.reqs[k], rec, tr)
		if err != nil {
			rec.fail(err)
			continue
		}
		total.add(c)
	}
	return total, nil
}

// request sends one verify request and checks its summary record.
func (b *simdBench) request(ctx context.Context, req api.Request, rec *recorder, tr *tracer) (counts, error) {
	op := tr.newOp()
	if tr != nil {
		ctx = context.WithValue(ctx, opKey{}, op)
	}
	start := time.Now()
	res, err := b.client.Verify(ctx, req)
	end := time.Now()
	if err != nil {
		var over *simd.OverloadedError
		if errors.As(err, &over) {
			return counts{}, fmt.Errorf("%s: shed with 429: %w", req.Workload, err)
		}
		return counts{}, fmt.Errorf("%s: %w", req.Workload, err)
	}
	s := res.Summary
	if !s.Verified || !s.Passed || s.Rounds != 1 || s.Error != "" {
		return counts{}, fmt.Errorf("%s(%v): summary verified=%v passed=%v rounds=%d mismatches=%v",
			req.Workload, req.Params, s.Verified, s.Passed, s.Rounds, s.Mismatches)
	}
	c := counts{Cases: 1}
	var hadesWall time.Duration
	for _, cfg := range res.Configs {
		c.Cycles += cfg.Cycles
		c.Events += cfg.Events
		hadesWall += time.Duration(cfg.WallNS)
	}
	rec.ok(end.Sub(start), c)
	if tr != nil {
		opSpan := tr.addOp("simd.Client.Verify", op, start, end, 0)
		b.mu.Lock()
		h, ok := b.handlers[op]
		delete(b.handlers, op)
		b.mu.Unlock()
		if ok {
			hs := tr.add("simd.ServeHTTP", op, opSpan, h.start, h.end, 0)
			round := tr.add("simd.round", op, hs, h.start, h.start.Add(time.Duration(s.WallNS)), 0)
			tr.add("hades.run", op, round, h.start, h.start.Add(hadesWall), int64(c.Events))
		}
	}
	return c, nil
}

func (b *simdBench) layers(tr *tracer, ops int) (map[string]float64, error) {
	a := tr.aggregate()
	req, handler, hades := get(a, "simd.Client.Verify"), get(a, "simd.ServeHTTP"), get(a, "hades.run")
	m := map[string]float64{
		"simd.request_ms":              perOp(ms(req.total), ops),
		"simd.transport_ms":            perOp(ms(req.self), ops),
		"simd.handler_self_ms":         perOp(ms(handler.self), ops),
		"simd.round_ms":                perOp(ms(get(a, "simd.round").total), ops),
		"hades.run_ms":                 perOp(ms(hades.total), ops),
		"hades.events":                 perOp(float64(hades.count), ops),
		"api.ndjson_bytes_per_request": perOp(float64(b.bytes), ops),
	}
	if hades.total > 0 {
		m["hades.events_per_s"] = float64(hades.count) / hades.total.Seconds()
	}
	if b.stats0 != nil {
		s0, s1 := *b.stats0, b.srv.Stats()
		if d := (s1.PoolHits - s0.PoolHits) + (s1.PoolMisses - s0.PoolMisses); d > 0 {
			m["simd.pool_hit_ratio"] = float64(s1.PoolHits-s0.PoolHits) / float64(d)
		}
		m["simd.rejected"] = perOp(float64(s1.Rejected-s0.Rejected), ops)
		m["simd.failed"] = perOp(float64(s1.Failed-s0.Failed), ops)
		if d := (s1.Resets - s0.Resets) + (s1.Elaborations - s0.Elaborations); d > 0 {
			m["rtg.replay_ratio"] = float64(s1.Resets-s0.Resets) / float64(d)
		}
	}
	return m, nil
}

func (b *simdBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.tp.CloseIdleConnections()
	return err
}
