package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the span whose interval contains this one (0: none). Count carries
// an exact count measured at the same boundary (events, allocations,
// bytes).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Root   bool   `json:"op_span,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory; they are written out when
// the run ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an op id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a span and returns its id.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time, count int64) int {
	return t.record(span{Name: name, Op: op, Parent: parent, Count: count}, start, end)
}

// addOp records an op's root span: the call a caller waits on.
func (t *tracer) addOp(name string, op int64, start, end time.Time, count int64) int {
	return t.record(span{Name: name, Op: op, Root: true, Count: count}, start, end)
}

func (t *tracer) record(s span, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = int64(start.Sub(t.t0))
	s.End = int64(end.Sub(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

// setParent attaches an already-recorded span to its parent, for spans
// whose parent ends (and is recorded) after them.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

// startOf returns a recorded span's start time.
func (t *tracer) startOf(id int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t0.Add(time.Duration(t.spans[id-1].Start))
}

// children indexes spans by parent id.
func (t *tracer) children() map[int][]*span {
	kids := map[int][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// self is a span's duration minus the part of it its children cover.
func self(s *span, kids []*span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - time.Duration(covered)
}

// agg sums one span name over the run.
type agg struct {
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
	count int64         // sum of attached counts
}

func (t *tracer) aggregate() map[string]*agg {
	kids := t.children()
	out := map[string]*agg{}
	for i := range t.spans {
		s := &t.spans[i]
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.total += s.dur()
		a.self += self(s, kids[s.ID])
		a.count += s.Count
	}
	return out
}

// opCoverage returns, for every op span, the share of its duration
// that reported per-layer metrics account for: the union of its child
// spans, plus the op's own self time when selfReported says a metric
// reports it.
func (t *tracer) opCoverage(selfReported bool) []float64 {
	kids := t.children()
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if !s.Root || s.dur() <= 0 {
			continue
		}
		covered := s.dur()
		if !selfReported {
			covered -= self(s, kids[s.ID])
		}
		out = append(out, float64(covered)/float64(s.dur()))
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides v by the op count, 0 when there were no ops.
func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}
