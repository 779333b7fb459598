package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"dynahist/client"
	"dynahist/internal/tuner"
)

// rec collects one client's operations: when each completed and its
// latency, values acked, and how many operations were attempted and
// failed.
type rec struct {
	origin               time.Time // start of the phase the rec belongs to
	write, read, visible []sample
	attempted, failed    int64
	calls                int64 // client calls made, to count retries against round trips
	errs                 []string
}

// sample is one completed operation: seconds since the phase began,
// latency in milliseconds, and values acked (writes only).
type sample struct {
	at, ms float64
	n      int
}

func (r *rec) add(dst *[]sample, lat time.Duration, n int) {
	*dst = append(*dst, sample{at: time.Since(r.origin).Seconds(), ms: ms(lat), n: n})
}

func (r *rec) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deployment is the set of server processes one set-up started.
type deployment struct {
	procs []*serverProc
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.stop()
	}
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range d.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (d *deployment) pids() []int {
	var out []int
	for _, p := range d.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

func (d *deployment) urls() []string {
	var out []string
	for _, p := range d.procs {
		out = append(out, p.url)
	}
	return out
}

// runner is one workload: its generated inputs and how it sets up,
// drives, checks and replays them.
type runner interface {
	// setup starts fresh servers under dir, creates and pre-loads the
	// histogram, and returns once every write is digested.
	setup(ctx context.Context, bin, dir string) (*deployment, error)
	// bind points the clients of the timed phase at d and resets the
	// truth to what set-up loaded.
	bind(d *deployment) error
	workers() int
	// steady reports whether the traffic so far has brought the servers
	// to the state the timed phase should measure.
	steady() bool
	// step performs one closed-loop operation of worker w.
	step(ctx context.Context, w int, r *rec)
	// finish makes the end-of-run reads and checks.
	finish(ctx context.Context, ec *endCheck, r *rec)
	truths() []*truth
	// roundTrips is the number of HTTP round trips the clients made.
	roundTrips() int64
	// replay feeds the inputs through the layers in process.
	replay(t *tracer, dir string, budget time.Duration) (*rig, error)
}

var workloadNames = []string{"ingest_durable", "query_mixed", "fanout_global"}

func newRunner(name string, seed int64) (runner, error) {
	switch name {
	case "ingest_durable":
		return &ingestRunner{in: genIngest(seed)}, nil
	case "query_mixed":
		return &queryRunner{in: genQuery(seed)}, nil
	case "fanout_global":
		return &fanoutRunner{in: genFanout(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func createOpts() client.CreateOptions {
	return client.CreateOptions{Name: benchName, Family: client.FamilyDADO, MemBytes: 1024, Shards: 2}
}

// preloadSite sends the batches and waits until the server has
// digested all of them.
func preloadSite(ctx context.Context, c *client.Client, batches [][]float64) error {
	var last uint64
	for _, b := range batches {
		ack, err := c.InsertBinaryAck(ctx, benchName, b)
		if err != nil {
			return fmt.Errorf("pre-load: %w", err)
		}
		last = ack.LSN
	}
	_, err := waitDigested(ctx, c, last)
	return err
}

// waitDigested polls the WAL status until the digested LSN reaches
// lsn, and returns the number of polls.
func waitDigested(ctx context.Context, c *client.Client, lsn uint64) (int64, error) {
	deadline := time.Now().Add(10 * time.Second)
	for n := int64(1); ; n++ {
		st, err := c.WALStatus(ctx)
		if err != nil {
			return n, err
		}
		if st.DigestedLSN >= lsn {
			return n, nil
		}
		if time.Now().After(deadline) {
			return n, fmt.Errorf("LSN %d not digested within 10s (digested %d)", lsn, st.DigestedLSN)
		}
		time.Sleep(time.Millisecond)
	}
}

// pollVisible polls the WAL status until it reports lsn digested — the
// first response that makes an acked write readable — and returns the
// number of polls. Without a WAL the ack's LSN is 0 and the first
// response qualifies.
func pollVisible(ctx context.Context, c *client.Client, lsn uint64) (int64, error) {
	ctx, sp := startSpan(ctx, "client.wal_status")
	defer sp.end()
	deadline := time.Now().Add(10 * time.Second)
	for n := int64(1); ; n++ {
		st, err := c.WALStatus(ctx)
		if err != nil {
			return n, err
		}
		if st.DigestedLSN >= lsn {
			return n, nil
		}
		if time.Now().After(deadline) {
			return n, fmt.Errorf("LSN %d not visible within 10s (digested %d)", lsn, st.DigestedLSN)
		}
	}
}

// insert sends one binary batch, recording it as a write, folds it
// into the truth, and confirms it visible.
func insert(ctx context.Context, c *client.Client, vals []float64, tr *truth, r *rec) (client.Ack, error) {
	r.attempted++
	r.calls++
	sctx, sp := startSpan(ctx, "client.insert")
	t0 := time.Now()
	ack, err := c.InsertBinaryAck(sctx, benchName, vals)
	lat := time.Since(t0)
	sp.end()
	if err != nil {
		r.fail(err)
		return ack, err
	}
	r.add(&r.write, lat, len(vals))
	if err := tr.insert(vals); err != nil {
		r.fail(err)
		return ack, err
	}
	return ack, nil
}

// visible records the time from an ack to the status response that
// confirms it readable.
func visible(ctx context.Context, c *client.Client, ack client.Ack, acked time.Time, r *rec) {
	r.attempted++
	n, err := pollVisible(ctx, c, ack.LSN)
	r.calls += n
	if err != nil {
		r.fail(err)
		return
	}
	r.add(&r.visible, time.Since(acked), 0)
}

// read issues one POST /query and checks the answer.
func read(ctx context.Context, c *client.Client, spec client.QuerySpec, r *rec) {
	r.attempted++
	r.calls++
	ctx, sp := startSpan(ctx, "client.query")
	t0 := time.Now()
	sum, err := c.Query(ctx, benchName, spec)
	lat := time.Since(t0)
	sp.end()
	if err == nil {
		err = checkSummary(spec, sum)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.add(&r.read, lat, 0)
}

// finalRead compares the histogram's count, as the server reports it,
// with the net acked count, and reads the whole served CDF for the
// accuracy check. The query answer's own total is recorded apart: on a
// tuned server it is the feedback overlay's mass, an estimate.
func finalRead(ctx context.Context, c *client.Client, tr *truth, ec *endCheck, r *rec) {
	r.attempted++
	r.calls += 2
	info, err := c.Info(ctx, benchName)
	if err != nil {
		r.fail(err)
		return
	}
	spec := client.QuerySpec{CDF: ksPoints()}
	sum, err := c.Query(ctx, benchName, spec)
	if err == nil {
		err = checkSummary(spec, sum)
	}
	if err != nil {
		r.fail(err)
		return
	}
	want := netCount(tr)
	ec.total("histogram", info.Total, want)
	ec.queryTotalErr = math.Abs(sum.Total-want) / want
	ec.accuracy(sum.CDF, merged(tr))
}

// ---- ingest_durable ----

type ingestRunner struct {
	in      *ingestInputs
	clients [2]*client.Client
	trans   [2]*countingTransport
	pos     [2]int
	inserts [2]int
	lastLSN [2]uint64
	truth   *truth
}

func (w *ingestRunner) workers() int      { return 2 }
func (w *ingestRunner) steady() bool      { return true }
func (w *ingestRunner) truths() []*truth  { return []*truth{w.truth} }
func (w *ingestRunner) roundTrips() int64 { return w.trans[0].trips.Load() + w.trans[1].trips.Load() }

func (w *ingestRunner) setup(ctx context.Context, bin, dir string) (*deployment, error) {
	p, err := startServer(bin, dir, "-wal-dir", filepath.Join(dir, "wal"), "-wal-sync", "always", "-metrics")
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*serverProc{p}}
	hc, _ := newHTTPClient()
	c := client.New(p.url, hc)
	if _, err := c.Create(ctx, createOpts()); err != nil {
		d.stop()
		return nil, fmt.Errorf("create: %w", err)
	}
	return d, nil
}

func (w *ingestRunner) bind(d *deployment) error {
	w.truth = newTruth()
	for i := range w.clients {
		var hc *http.Client
		hc, w.trans[i] = newHTTPClient()
		w.clients[i] = client.New(d.procs[0].url, hc)
	}
	return nil
}

func (w *ingestRunner) step(ctx context.Context, i int, r *rec) {
	stream := w.in.streams[i]
	b := stream[w.pos[i]%len(stream)]
	w.pos[i]++
	c := w.clients[i]
	if b.del {
		r.attempted++
		r.calls++
		sctx, sp := startSpan(ctx, "client.delete")
		t0 := time.Now()
		_, err := c.DeleteValues(sctx, benchName, b.vals)
		lat := time.Since(t0)
		sp.end()
		if err == nil {
			err = w.truth.apply(b)
		}
		if err != nil {
			r.fail(err)
			return
		}
		r.add(&r.write, lat, len(b.vals))
		return
	}
	ack, err := insert(ctx, c, b.vals, w.truth, r)
	if err != nil {
		return
	}
	acked := time.Now()
	w.lastLSN[i] = max(w.lastLSN[i], ack.LSN)
	if w.inserts[i]++; w.inserts[i]%8 != 0 {
		return
	}
	visible(ctx, c, ack, acked, r)
	read(ctx, c, w.in.probe, r)
}

func (w *ingestRunner) finish(ctx context.Context, ec *endCheck, r *rec) {
	c := w.clients[0]
	polls, err := waitDigested(ctx, c, max(w.lastLSN[0], w.lastLSN[1]))
	r.calls += polls
	if err != nil {
		r.attempted++
		r.fail(err)
		return
	}
	finalRead(ctx, c, w.truth, ec, r)
}

func (w *ingestRunner) replay(t *tracer, dir string, budget time.Duration) (*rig, error) {
	rg, err := newRig(t, dir, rigConfig{durable: true, siteIDs: []string{""}})
	if err != nil {
		return nil, err
	}
	rg.start()
	var pos [2]int
	deadline := time.Now().Add(budget)
	for n := 0; time.Now().Before(deadline); n++ {
		s := w.in.streams[n%2]
		if err := rg.write(0, s[pos[n%2]%len(s)]); err != nil {
			return rg, err
		}
		pos[n%2]++
	}
	return rg, rg.probe(w.in.probe, traffic{})
}

// ---- query_mixed ----

type queryRunner struct {
	in      *queryInputs
	clients [2]*client.Client
	trans   [2]*countingTransport
	pos     [2]int
	fed     [2]int // feedback records sent
	truth   *truth
}

func (w *queryRunner) workers() int { return 2 }

// steady holds once the server's tuner journal is full: until then
// every feedback record makes the tuned-view rebuild after each write
// dearer, and throughput falls through the first seconds.
func (w *queryRunner) steady() bool { return w.fed[0]+w.fed[1] >= tuner.DefaultMaxJournal }

func (w *queryRunner) truths() []*truth  { return []*truth{w.truth} }
func (w *queryRunner) roundTrips() int64 { return w.trans[0].trips.Load() + w.trans[1].trips.Load() }

func (w *queryRunner) setup(ctx context.Context, bin, dir string) (*deployment, error) {
	p, err := startServer(bin, dir, "-tuning", "-metrics")
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*serverProc{p}}
	hc, _ := newHTTPClient()
	c := client.New(p.url, hc)
	if _, err := c.Create(ctx, createOpts()); err != nil {
		d.stop()
		return nil, fmt.Errorf("create: %w", err)
	}
	if err := preloadSite(ctx, c, w.in.preload); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (w *queryRunner) bind(d *deployment) error {
	w.truth = newTruth()
	for _, b := range w.in.preload {
		if err := w.truth.insert(b); err != nil {
			return err
		}
	}
	for i := range w.clients {
		var hc *http.Client
		hc, w.trans[i] = newHTTPClient()
		w.clients[i] = client.New(d.procs[0].url, hc)
	}
	return nil
}

func (w *queryRunner) step(ctx context.Context, i int, r *rec) {
	plan := w.in.plan[i]
	st := plan[w.pos[i]%len(plan)]
	w.pos[i]++
	c := w.clients[i]
	switch st.kind {
	case opHot:
		read(ctx, c, w.in.hot[st.idx], r)
	case opCold:
		read(ctx, c, w.in.cold[i][st.idx], r)
	case opInsert:
		ack, err := insert(ctx, c, w.in.inserts[i][st.idx], w.truth, r)
		if err == nil {
			visible(ctx, c, ack, time.Now(), r)
		}
	case opFeedback:
		rg := w.in.feedback[i][st.idx]
		r.attempted++
		r.calls++
		sctx, sp := startSpan(ctx, "client.feedback")
		_, err := c.Feedback(sctx, benchName, rg.Lo, rg.Hi, w.truth.rangeCount(rg))
		sp.end()
		if err != nil {
			r.fail(err)
			return
		}
		w.fed[i]++
	}
}

func (w *queryRunner) finish(ctx context.Context, ec *endCheck, r *rec) {
	finalRead(ctx, w.clients[0], w.truth, ec, r)
}

func (w *queryRunner) replay(t *tracer, dir string, budget time.Duration) (*rig, error) {
	rg, err := newRig(t, dir, rigConfig{tuning: true, siteIDs: []string{""}})
	if err != nil {
		return nil, err
	}
	if err := rg.preload(0, w.in.preload); err != nil {
		return rg, err
	}
	rg.start()
	var pos [2]int
	deadline := time.Now().Add(budget)
	for n := 0; time.Now().Before(deadline); n++ {
		i := n % 2
		st := w.in.plan[i][pos[i]%planLen]
		pos[i]++
		switch st.kind {
		case opHot:
			err = rg.query(0, w.in.hot[st.idx])
		case opCold:
			err = rg.query(0, w.in.cold[i][st.idx])
		case opInsert:
			err = rg.write(0, batch{vals: w.in.inserts[i][st.idx]})
		case opFeedback:
			err = rg.feedback(0, w.in.feedback[i][st.idx])
		}
		if err != nil {
			return rg, err
		}
	}
	return rg, rg.probe(w.in.hot[0], traffic{query: true, feedback: true})
}

// ---- fanout_global ----

type fanoutRunner struct {
	in        *fanoutInputs
	fan       *client.Fanout
	sites     [2]*client.Client
	trans     *countingTransport
	describes int
	next      [2]int
	truth     [2]*truth
}

// maxBuckets is the bucket budget the global Describe reduces to.
const maxBuckets = 64

func (w *fanoutRunner) workers() int      { return 1 }
func (w *fanoutRunner) steady() bool      { return true }
func (w *fanoutRunner) truths() []*truth  { return w.truth[:] }
func (w *fanoutRunner) roundTrips() int64 { return w.trans.trips.Load() }

func (w *fanoutRunner) setup(ctx context.Context, bin, dir string) (*deployment, error) {
	d := &deployment{}
	for i, id := range []string{"a", "b"} {
		p, err := startServer(bin, filepath.Join(dir, id), "-site-id", id, "-metrics")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		hc, _ := newHTTPClient()
		c := client.New(p.url, hc)
		if _, err := c.Create(ctx, createOpts()); err != nil {
			d.stop()
			return nil, fmt.Errorf("create on site %s: %w", id, err)
		}
		if err := preloadSite(ctx, c, w.in.preload[i]); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func (w *fanoutRunner) bind(d *deployment) error {
	hc, ct := newHTTPClient()
	w.trans = ct
	w.fan = client.NewFanout(d.urls(), hc)
	for i := range w.sites {
		w.sites[i] = client.New(d.procs[i].url, hc)
		w.truth[i] = newTruth()
		for _, b := range w.in.preload[i] {
			if err := w.truth[i].insert(b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fanoutRunner) step(ctx context.Context, _ int, r *rec) {
	if w.describes%10 == 0 {
		s := (w.describes / 10) % 2
		pool := w.in.inserts[s]
		ack, err := insert(ctx, w.sites[s], pool[w.next[s]%len(pool)], w.truth[s], r)
		w.next[s]++
		if err == nil {
			visible(ctx, w.sites[s], ack, time.Now(), r)
		}
	}
	w.describes++
	r.attempted++
	r.calls += 2
	sctx, sp := startSpan(ctx, "client.describe")
	t0 := time.Now()
	g, err := w.fan.Describe(sctx, benchName, w.in.spec, client.DescribeOptions{MaxBuckets: maxBuckets})
	lat := time.Since(t0)
	sp.end()
	if err == nil {
		err = checkGlobal(w.in.spec, g)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.add(&r.read, lat, 0)
}

func (w *fanoutRunner) finish(ctx context.Context, ec *endCheck, r *rec) {
	r.attempted++
	r.calls += 2
	spec := client.QuerySpec{CDF: ksPoints()}
	g, err := w.fan.Describe(ctx, benchName, spec, client.DescribeOptions{MaxBuckets: maxBuckets})
	if err == nil {
		err = checkGlobal(spec, g)
	}
	if err != nil {
		r.fail(err)
		return
	}
	if len(g.Sites) != 2 {
		r.fail(errors.New("fanout answered for the wrong number of sites"))
		return
	}
	for i, s := range g.Sites {
		ec.total("site "+s.Site, s.Total, netCount(w.truth[i]))
	}
	ec.total("global", g.Total, netCount(w.truth[:]...))
	ec.accuracy(g.CDF, merged(w.truth[:]...))
}

func (w *fanoutRunner) replay(t *tracer, dir string, budget time.Duration) (*rig, error) {
	rg, err := newRig(t, dir, rigConfig{siteIDs: []string{"a", "b"}})
	if err != nil {
		return nil, err
	}
	for i := range w.in.preload {
		if err := rg.preload(i, w.in.preload[i]); err != nil {
			return rg, err
		}
	}
	rg.start()
	var next [2]int
	deadline := time.Now().Add(budget)
	for n := 0; time.Now().Before(deadline); n++ {
		if n%10 == 0 {
			s := (n / 10) % 2
			pool := w.in.inserts[s]
			if err := rg.write(s, batch{vals: pool[next[s]%len(pool)]}); err != nil {
				return rg, err
			}
			next[s]++
		}
		if err := rg.describe(w.in.spec, maxBuckets); err != nil {
			return rg, err
		}
	}
	return rg, rg.probe(w.in.spec, traffic{describe: true})
}
