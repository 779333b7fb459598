package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer: its name, when it started and
// ended (ns since the tracer's epoch), the span that caused it (-1 for
// a root) and the request it belongs to.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; they are written
// out once, when the run ends. It also keeps per-name samples of
// quantities that are not durations (bytes, bucket counts).
type tracer struct {
	epoch time.Time
	req   atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: make(map[string][]float64)}
}

func (t *tracer) newReq() int64 { return t.req.Add(1) }

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return d
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// spanRef carries the current span through a context, so the HTTP
// transport can attach its round trips to the client call that made
// them.
type spanRef struct {
	t   *tracer
	id  int32
	req int64
}

type spanKey struct{}

type tracerKey struct{}

// withTracer marks ctx's operations as traced.
func withTracer(ctx context.Context, t *tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// startSpan opens a span under the context's current one (a root with
// a fresh request ID if there is none). In an untraced context it does
// nothing.
func startSpan(ctx context.Context, name string) (context.Context, spanRef) {
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	if t == nil {
		return ctx, spanRef{}
	}
	parent, req := int32(-1), int64(0)
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok && p.t == t {
		parent, req = p.id, p.req
	} else {
		req = t.newReq()
	}
	s := spanRef{t: t, id: t.begin(name, parent, req), req: req}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (s spanRef) end() {
	if s.t != nil {
		s.t.end(s.id)
	}
}

// countingTransport counts HTTP round trips, so retries show as round
// trips beyond the client calls made, and records each round trip as
// an http.roundtrip span when the request's context carries one.
type countingTransport struct {
	base  http.RoundTripper
	trips atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	if p, ok := r.Context().Value(spanKey{}).(spanRef); ok && p.t != nil {
		id := p.t.begin("http.roundtrip", p.id, p.req)
		resp, err := c.base.RoundTrip(r)
		p.t.end(id)
		return resp, err
	}
	return c.base.RoundTrip(r)
}

// newHTTPClient returns a client holding at most one connection per
// server, with its round-trip counter.
func newHTTPClient() (*http.Client, *countingTransport) {
	ct := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
	return &http.Client{Transport: ct, Timeout: 10 * time.Second}, ct
}

// durationsUS returns the durations of every closed span named name, in
// microseconds.
func (t *tracer) durationsUS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) samplesOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// splitRow is one line of a self-time split: the share of the root
// spans' total time spent in one child layer, or in the root itself.
type splitRow struct {
	Name  string  `json:"name"`
	US    float64 `json:"total_us"`
	Share float64 `json:"share"`
}

// split attributes the time of every span named root to its direct
// children by name and to the root's self time: its duration minus the
// part of it its children cover. It also counts the roots whose
// children's summed durations exceed their own, which a correct trace
// never has.
func (t *tracer) split(root string) (rows []splitRow, roots, overfull int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	byName := make(map[string]float64)
	var total, self float64
	for i, s := range t.spans {
		if s.Name != root || s.End == 0 {
			continue
		}
		roots++
		dur := s.End - s.Start
		var sum int64
		var iv [][2]int64
		for _, c := range children[int32(i)] {
			cs := t.spans[c]
			sum += cs.End - cs.Start
			byName[cs.Name] += float64(cs.End-cs.Start) / 1e3
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		if sum > dur {
			overfull++
		}
		total += float64(dur) / 1e3
		self += float64(dur-covered(iv)) / 1e3
	}
	if total == 0 {
		return nil, roots, overfull
	}
	for name, us := range byName {
		rows = append(rows, splitRow{Name: name, US: us, Share: us / total})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].US > rows[j].US })
	rows = append(rows, splitRow{Name: root + " (self)", US: self, Share: self / total})
	return rows, roots, overfull
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, hi int64
	hi = -1 << 62
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		lo := max(x[0], hi)
		if x[1] > lo {
			n += x[1] - lo
		}
		hi = max(hi, x[1])
	}
	return n
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, s := range t.spans {
		_ = enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s})
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
