package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// OverloadedError is a 429 from the server: the request was shed by an
// admission gate. RetryAfter carries the server's Retry-After hint.
type OverloadedError struct {
	RetryAfter time.Duration
	Message    string
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("simd: server overloaded (retry after %s): %s", e.RetryAfter, e.Message)
}

// Result is one fully-decoded NDJSON response: the streamed
// per-configuration records plus the trailing summary.
type Result struct {
	Configs []api.RunRecord
	Summary api.RunRecord
}

// Client speaks the simd wire protocol. The zero value is not usable;
// construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a server base URL, e.g. "http://localhost:8047".
// httpClient nil means http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// Verify runs the request's rounds (req.Rounds, default 1), each one
// verified.
func (c *Client) Verify(ctx context.Context, req api.Request) (*Result, error) {
	return c.do(ctx, PathVerify, req)
}

// Bench runs the request as an unverified timing sweep.
func (c *Client) Bench(ctx context.Context, req api.Request) (*Result, error) {
	return c.do(ctx, PathBench, req)
}

// Stats fetches /statsz.
func (c *Client) Stats(ctx context.Context) (*api.ServerStats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStats, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var st api.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("simd: bad /statsz body: %w", err)
	}
	if err := api.CheckVersion(st.SchemaVersion); err != nil {
		return nil, err
	}
	return &st, nil
}

// Backends fetches /v1/backends: the server's default backend and the
// full registered-descriptor catalog.
func (c *Client) Backends(ctx context.Context) (*api.BackendsResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathBackends, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var br api.BackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, fmt.Errorf("simd: bad /v1/backends body: %w", err)
	}
	if err := api.CheckVersion(br.SchemaVersion); err != nil {
		return nil, err
	}
	return &br, nil
}

func (c *Client) do(ctx context.Context, path string, req api.Request) (*Result, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SchemaVersion
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	return decodeStream(resp.Body)
}

// decodeStream reads an NDJSON response into a Result. A summary
// carrying a server-side error yields that error alongside the partial
// result.
func decodeStream(r io.Reader) (*Result, error) {
	res := &Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sawSummary := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec api.RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return res, fmt.Errorf("simd: bad response line: %w", err)
		}
		if err := api.CheckVersion(rec.SchemaVersion); err != nil {
			return res, err
		}
		switch rec.Record {
		case api.RecordConfig:
			res.Configs = append(res.Configs, rec)
		case api.RecordSummary:
			res.Summary = rec
			sawSummary = true
		default:
			return res, fmt.Errorf("simd: unknown record kind %q", rec.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if !sawSummary {
		return res, errors.New("simd: response stream ended without a summary record")
	}
	if res.Summary.Error != "" {
		return res, fmt.Errorf("simd: request failed after %d rounds: %s", res.Summary.Rounds, res.Summary.Error)
	}
	return res, nil
}

// StatusError is any other non-200 reply, keeping the status code so
// callers can tell a client error (4xx: the request itself is wrong
// and will be wrong on every server) from a server error (5xx: this
// endpoint is unhealthy, another may serve the same request fine).
type StatusError struct {
	Status  int
	Message string
}

// Error implements error, preserving the legacy message shape.
func (e *StatusError) Error() string {
	return fmt.Sprintf("simd: HTTP %d: %s", e.Status, e.Message)
}

// httpError turns a non-200 reply into a typed error: 429 becomes an
// *OverloadedError so callers can back off programmatically, anything
// else a *StatusError so they can classify by status code.
func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	text := strings.TrimSpace(string(msg))
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &OverloadedError{RetryAfter: retry, Message: text}
	}
	return &StatusError{Status: resp.StatusCode, Message: text}
}

// BaseURL reports the server base URL this client targets.
func (c *Client) BaseURL() string { return c.base }
