package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/histogram"
	"dynahist/internal/obs"
	"dynahist/internal/server"
	"dynahist/internal/tuner"
	"dynahist/internal/union"
	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// The traced run's layer replay. It feeds a run's generated inputs
// through each layer's public entry points in process, in the order
// histserved calls them, and records one span per call:
//
//	req.write    wire.decode_batch → wal.append → shard.total (the ack)
//	             → server.digest_apply{wire.decode_batch → shard.insert_batch{core.insert_batch}}
//	             → obs.observe        (durable; in memory the apply precedes the ack)
//	req.query    wire.query_codec → shard.view → tuner.tuned_view → histogram.describe
//	             → wire.query_codec → obs.observe
//	req.feedback shard.view → tuner.feedback
//	req.describe shard.total → envelope.encode → envelope.restore → union.superpose
//	             → union.reduce → histogram.describe
//
// Handler spans come from the same inputs sent through an in-process
// server's Handler().ServeHTTP. Layers a workload's own traffic does
// not reach are exercised by a short probe tail on the workload's final
// state (see probe), so every layer metric exists on every workload.

const benchName = "bench"

// tracedMember wraps one shard's DADO histogram, recording the shard
// engine's calls into the core layer as child spans of the rig's
// current span.
type tracedMember struct {
	h   dynahist.Histogram
	rig *rig
}

func (m *tracedMember) Insert(v float64) error               { return m.h.Insert(v) }
func (m *tracedMember) Delete(v float64) error               { return m.h.Delete(v) }
func (m *tracedMember) Total() float64                       { return m.h.Total() }
func (m *tracedMember) CDF(x float64) float64                { return m.h.CDF(x) }
func (m *tracedMember) EstimateRange(lo, hi float64) float64 { return m.h.EstimateRange(lo, hi) }

func (m *tracedMember) Buckets() []dynahist.Bucket {
	defer m.rig.child("core.buckets")()
	return m.h.Buckets()
}

func (m *tracedMember) InsertBatch(vs []float64) error {
	defer m.rig.child("core.insert_batch")()
	return dynahist.InsertAll(m.h, vs)
}

func (m *tracedMember) DeleteBatch(vs []float64) error {
	defer m.rig.child("core.delete_batch")()
	return dynahist.DeleteAll(m.h, vs)
}

func (m *tracedMember) Snapshot() ([]byte, error) {
	return m.h.(dynahist.Snapshotter).Snapshot()
}

func (m *tracedMember) reorganisations() int {
	if r, ok := m.h.(interface{ Reorganisations() int }); ok {
		return r.Reorganisations()
	}
	return 0
}

// site is one histogram as the replay keeps it: a shard engine over
// traced members, and the in-process server that gets the same inputs
// through its HTTP handler.
type site struct {
	eng     *dynahist.Sharded
	members []*tracedMember
	srv     *server.Server
	h       http.Handler
	truth   *truth
	writes  uint64 // epoch for the tuned-view memo
	dirty   bool   // written since the merged view was last built
}

type rig struct {
	t       *tracer
	durable bool
	tuning  bool // the in-process servers run with tuning enabled
	sites   []*site
	log     *wal.Log // the replay's own log; a probe of the WAL layer when not durable
	tun     *tuner.Tuner
	tracker *obs.Tracker

	cur      spanRef // parent of the member spans
	tunedKey [2]uint64
	tuned    *dynahist.View

	scratch, scratch2 []float64
	appends           int64
	appendedValues    int64
	appliedValues     int64
	reorgBase         int
}

// rigConfig describes the servers a workload runs.
type rigConfig struct {
	durable bool
	tuning  bool
	siteIDs []string // one in-process server per entry
}

func newRig(t *tracer, dir string, cfg rigConfig) (*rig, error) {
	r := &rig{t: t, durable: cfg.durable, tuning: cfg.tuning, tun: tuner.New(tuner.Config{})}
	r.tracker = obs.NewRegistry().ScaledTracker("bench_latency_seconds", "replay request latency", 1e6)
	var err error
	r.log, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "replay-wal"), Sync: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("opening replay WAL: %w", err)
	}
	for i, id := range cfg.siteIDs {
		scfg := server.Config{
			Logger:  log.New(io.Discard, "", 0),
			SiteID:  id,
			Metrics: true,
			Tuning:  server.TuningConfig{Enabled: cfg.tuning},
		}
		if cfg.durable {
			scfg.WAL = wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("server-wal-%d", i)), Sync: wal.SyncAlways}
		}
		srv, err := server.New(scfg)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("in-process server: %w", err)
		}
		s := &site{srv: srv, h: srv.Handler(), truth: newTruth()}
		r.sites = append(r.sites, s)
		s.eng, err = dynahist.NewSharded(func() (dynahist.Histogram, error) {
			h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
			if err != nil {
				return nil, err
			}
			m := &tracedMember{h: h, rig: r}
			s.members = append(s.members, m)
			return m, nil
		}, dynahist.WithShards(2))
		if err != nil {
			r.close()
			return nil, err
		}
		body, _ := json.Marshal(wire.CreateRequest{Name: benchName, Family: "dado", MemBytes: 1024, Shards: 2})
		if rec := r.serve(s.h, "POST", "/v1/h", "application/json", body); rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("in-process create: %d %s", rec.Code, rec.Body.String())
		}
	}
	return r, nil
}

func (r *rig) close() {
	for _, s := range r.sites {
		_ = s.srv.Close()
	}
	_ = r.log.Close()
}

// child opens a span under the rig's current span and returns its
// closer; outside a traced call it does nothing.
func (r *rig) child(name string) func() {
	if r.cur.t == nil {
		return func() {}
	}
	id := r.t.begin(name, r.cur.id, r.cur.req)
	return func() { r.t.end(id) }
}

// within runs fn with parent as the current span of the member spans.
func (r *rig) within(parent int32, req int64, fn func()) {
	prev := r.cur
	r.cur = spanRef{t: r.t, id: parent, req: req}
	fn()
	r.cur = prev
}

func (r *rig) serve(h http.Handler, method, path, ct string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// preload loads a site untraced: engine, truth and in-process server.
func (r *rig) preload(si int, batches [][]float64) error {
	s := r.sites[si]
	for _, b := range batches {
		if err := s.eng.InsertBatch(b); err != nil {
			return err
		}
		if err := s.truth.insert(b); err != nil {
			return err
		}
		body, err := wire.EncodeBatch(b)
		if err != nil {
			return err
		}
		if rec := r.serve(s.h, "POST", "/v1/h/"+benchName+"/insert", wire.BatchContentType, body); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process preload: %d %s", rec.Code, rec.Body.String())
		}
	}
	s.dirty = true
	return nil
}

// start marks the end of set-up: reorganisation counts start here.
func (r *rig) start() {
	r.reorgBase = r.reorganisations()
}

func (r *rig) reorganisations() int {
	n := 0
	for _, s := range r.sites {
		for _, m := range s.members {
			n += m.reorganisations()
		}
	}
	return n
}

// total is the Total() an ingest ack (or envelope fetch) calls; the
// first read after a write rebuilds the merged view.
func (r *rig) total(parent int32, req int64, s *site) {
	id := r.t.begin("shard.total", parent, req)
	r.within(id, req, func() { _ = s.eng.Total() })
	d := r.t.end(id)
	if s.dirty {
		r.t.sample("shard.view_build", float64(d)/1e3)
		s.dirty = false
	}
}

func (r *rig) view(parent int32, req int64, s *site) (*dynahist.View, error) {
	id := r.t.begin("shard.view", parent, req)
	var v *dynahist.View
	var err error
	r.within(id, req, func() { v, err = s.eng.View() })
	d := r.t.end(id)
	if s.dirty {
		r.t.sample("shard.view_build", float64(d)/1e3)
		s.dirty = false
	}
	return v, err
}

func (r *rig) apply(parent int32, req int64, s *site, b batch, vs []float64) error {
	name := "shard.insert_batch"
	if b.del {
		name = "shard.delete_batch"
	}
	id := r.t.begin(name, parent, req)
	var err error
	r.within(id, req, func() {
		if b.del {
			err = s.eng.DeleteBatch(vs)
		} else {
			err = s.eng.InsertBatch(vs)
		}
	})
	r.t.end(id)
	s.dirty = true
	s.writes++
	r.appliedValues += int64(len(vs))
	return err
}

func (r *rig) appendWAL(parent int32, req int64, b batch, body []byte) uint64 {
	op := wal.OpInsert
	if b.del {
		op = wal.OpDelete
	}
	id := r.t.begin("wal.append", parent, req)
	lsn, err := r.log.Append(op, benchName, body)
	r.t.end(id)
	if err == nil {
		r.appends++
		r.appendedValues += int64(len(b.vals))
	}
	return lsn
}

// write replays one ingest batch.
func (r *rig) write(si int, b batch) error {
	s := r.sites[si]
	body, err := wire.EncodeBatch(b.vals)
	if err != nil {
		return err
	}
	if err := s.truth.apply(b); err != nil {
		return err
	}
	req := r.t.newReq()
	start := time.Now()
	root := r.t.begin("req.write", -1, req)
	id := r.t.begin("wire.decode_batch", root, req)
	vs, err := wire.DecodeBatchInto(r.scratch[:0], body)
	r.t.end(id)
	r.scratch = vs
	if err != nil {
		return err
	}
	if r.durable {
		lsn := r.appendWAL(root, req, b, body)
		r.total(root, req, s)
		id = r.t.begin("server.digest_apply", root, req)
		d := r.t.begin("wire.decode_batch", id, req)
		r.scratch2, err = wire.DecodeBatchInto(r.scratch2[:0], body)
		r.t.end(d)
		if err == nil {
			err = r.apply(id, req, s, b, r.scratch2)
		}
		r.log.MarkDigested(lsn)
		r.t.end(id)
	} else {
		id = r.t.begin("server.digest_apply", root, req)
		err = r.apply(id, req, s, b, vs)
		r.t.end(id)
		r.total(root, req, s)
	}
	if err != nil {
		return err
	}
	r.observe(root, req, start)
	r.t.end(root)

	if !r.durable {
		r.log.MarkDigested(r.appendWAL(-1, req, b, body))
	}
	if len(r.sites) == 1 {
		if err := r.superposeShards(req, s); err != nil {
			return err
		}
	}
	return r.handleWrite(req, s, b, body)
}

func (r *rig) observe(parent int32, req int64, start time.Time) {
	id := r.t.begin("obs.observe", parent, req)
	r.tracker.Observe(time.Since(start).Seconds())
	r.t.end(id)
}

// superposeShards times union.Superpose over the shard members' bucket
// lists — the merge inside the view rebuild every ack pays.
func (r *rig) superposeShards(req int64, s *site) error {
	lists := make([][]histogram.Bucket, 0, len(s.members))
	n := 0
	for _, m := range s.members {
		pb := m.h.Buckets()
		bs := make([]histogram.Bucket, len(pb))
		for i, b := range pb {
			bs[i] = histogram.Bucket{Left: b.Left, Right: b.Right, Subs: b.Counters}
		}
		if histogram.TotalCount(bs) > 0 {
			lists = append(lists, bs)
			n += len(bs)
		}
	}
	if len(lists) == 0 {
		return nil
	}
	id := r.t.begin("union.superpose", -1, req)
	_, err := union.Superpose(lists...)
	r.t.end(id)
	r.t.sample("union.buckets_in", float64(n))
	return err
}

// handleWrite sends the batch through the in-process server and waits
// until its status reports the batch digested.
func (r *rig) handleWrite(req int64, s *site, b batch, body []byte) error {
	name, op := "server.insert_handler", "insert"
	if b.del {
		name, op = "server.delete_handler", "delete"
	}
	id := r.t.begin(name, -1, req)
	rec := r.serve(s.h, "POST", "/v1/h/"+benchName+"/"+op, wire.BatchContentType, body)
	r.t.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: %d %s", op, rec.Code, rec.Body.String())
	}
	var ack wire.UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		return err
	}
	id = r.t.begin("server.digest_wait", -1, req)
	defer r.t.end(id)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st wire.WALStatusResponse
		if err := json.Unmarshal(r.serve(s.h, "GET", "/v1/wal/status", "", nil).Body.Bytes(), &st); err != nil {
			return err
		}
		if st.DigestedLSN >= ack.LSN {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process LSN %d not digested", ack.LSN)
		}
		runtime.Gosched()
	}
}

func toWireQuery(spec client.QuerySpec) wire.QueryRequest {
	q := wire.QueryRequest{Quantiles: spec.Quantiles, CDF: spec.CDF, PDF: spec.PDF, Buckets: spec.Buckets}
	for _, rr := range spec.Ranges {
		q.Ranges = append(q.Ranges, wire.RangeQuery{Lo: rr.Lo, Hi: rr.Hi})
	}
	return q
}

func toDynaSpec(q wire.QueryRequest) dynahist.QuerySpec {
	s := dynahist.QuerySpec{Quantiles: q.Quantiles, CDF: q.CDF, PDF: q.PDF, Buckets: q.Buckets}
	for _, rr := range q.Ranges {
		s.Ranges = append(s.Ranges, dynahist.Range{Lo: rr.Lo, Hi: rr.Hi})
	}
	return s
}

// query replays one POST /query.
func (r *rig) query(si int, spec client.QuerySpec) error {
	s := r.sites[si]
	body, err := json.Marshal(toWireQuery(spec))
	if err != nil {
		return err
	}
	req := r.t.newReq()
	start := time.Now()
	root := r.t.begin("req.query", -1, req)
	id := r.t.begin("wire.query_codec", root, req)
	var q wire.QueryRequest
	err = json.Unmarshal(body, &q)
	r.t.end(id)
	if err != nil {
		return err
	}
	v, err := r.view(root, req, s)
	if err != nil {
		return err
	}
	if r.tun.Len() > 0 {
		key := [2]uint64{s.writes, r.tun.Rounds()}
		if r.tuned == nil || key != r.tunedKey {
			id = r.t.begin("tuner.tuned_view", root, req)
			r.tuned = tunedView(v, r.tun)
			r.t.end(id)
			r.tunedKey = key
		}
		if r.tuned != nil {
			v = r.tuned
		}
	}
	id = r.t.begin("histogram.describe", root, req)
	sum, err := v.Describe(toDynaSpec(q))
	r.t.end(id)
	if err != nil {
		return err
	}
	id = r.t.begin("wire.query_codec", root, req)
	_, err = json.Marshal(wire.QueryResponse{Total: sum.Total, Quantiles: sum.Quantiles, CDF: sum.CDF, PDF: sum.PDF, Ranges: sum.Ranges})
	r.t.end(id)
	if err != nil {
		return err
	}
	r.observe(root, req, start)
	r.t.end(root)

	id = r.t.begin("server.query_handler", -1, req)
	rec := r.serve(s.h, "POST", "/v1/h/"+benchName+"/query", "application/json", body)
	r.t.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process query: %d %s", rec.Code, rec.Body.String())
	}
	return nil
}

// tunedView overlays the feedback journal on the merged view the way
// the server's read path does: replay the journal onto a flat store of
// the view's buckets and serve the result as a static histogram.
func tunedView(v *dynahist.View, t *tuner.Tuner) *dynahist.View {
	pb := v.Buckets()
	if len(pb) == 0 || len(pb[0].Counters) == 0 {
		return nil
	}
	k := len(pb[0].Counters)
	ib := make([]histogram.Bucket, len(pb))
	for i, b := range pb {
		ib[i] = histogram.Bucket{Left: b.Left, Right: b.Right, Subs: b.Counters}
	}
	st, err := histogram.StoreOfBuckets(ib, k)
	if err != nil {
		return nil
	}
	t.ApplyTo(st)
	tuned := st.Buckets()
	out := make([]dynahist.Bucket, len(tuned))
	for i, b := range tuned {
		out[i] = dynahist.Bucket{Left: b.Left, Right: b.Right, Counters: b.Subs}
	}
	h, err := dynahist.NewStaticFromBuckets(out)
	if err != nil {
		return nil
	}
	tv, err := h.View()
	if err != nil {
		return nil
	}
	return tv
}

// feedback replays one feedback record carrying the exact count.
func (r *rig) feedback(si int, rg client.Range) error {
	s := r.sites[si]
	observed := s.truth.rangeCount(rg)
	req := r.t.newReq()
	root := r.t.begin("req.feedback", -1, req)
	v, err := r.view(root, req, s)
	if err != nil {
		return err
	}
	id := r.t.begin("tuner.feedback", root, req)
	err = r.tun.Observe(tuner.Record{Lo: rg.Lo, Hi: rg.Hi, Estimated: v.EstimateRange(rg.Lo, rg.Hi), Observed: observed})
	r.t.end(id)
	r.t.end(root)
	if err != nil {
		return err
	}
	if !r.tuning {
		return nil
	}
	body, _ := json.Marshal(wire.FeedbackRequest{Lo: rg.Lo, Hi: rg.Hi, Observed: observed})
	id = r.t.begin("server.feedback_handler", -1, req)
	rec := r.serve(s.h, "POST", "/v1/h/"+benchName+"/feedback", "application/json", body)
	r.t.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process feedback: %d %s", rec.Code, rec.Body.String())
	}
	return nil
}

// describe replays one global Describe over every site.
func (r *rig) describe(spec client.QuerySpec, maxBuckets int) error {
	req := r.t.newReq()
	root := r.t.begin("req.describe", -1, req)
	var blobs [][]byte
	for _, s := range r.sites {
		r.total(root, req, s)
		id := r.t.begin("envelope.encode", root, req)
		blob, err := s.eng.Snapshot()
		r.t.end(id)
		if err != nil {
			return err
		}
		r.t.sample("envelope.bytes", float64(len(blob)))
		blobs = append(blobs, blob)
	}
	var hs []dynahist.Histogram
	for _, blob := range blobs {
		id := r.t.begin("envelope.restore", root, req)
		h, err := dynahist.Restore(blob)
		r.t.end(id)
		if err != nil {
			return err
		}
		hs = append(hs, h)
	}
	id := r.t.begin("union.superpose", root, req)
	bs, err := dynahist.Superpose(hs...)
	r.t.end(id)
	if err != nil {
		return err
	}
	if len(bs) > maxBuckets {
		id = r.t.begin("union.reduce", root, req)
		bs, err = dynahist.Reduce(bs, maxBuckets)
		r.t.end(id)
		if err != nil {
			return err
		}
	}
	id = r.t.begin("histogram.describe", root, req)
	g, err := dynahist.NewStaticFromBuckets(bs)
	if err == nil {
		_, err = dynahist.Describe(g, toDynaSpec(toWireQuery(spec)))
	}
	r.t.end(id)
	if err != nil {
		return err
	}
	r.t.end(root)
	n := 0
	for _, h := range hs {
		n += len(h.Buckets())
	}
	r.t.sample("union.buckets_in", float64(n))
	for _, s := range r.sites {
		id = r.t.begin("server.envelope_handler", -1, req)
		rec := r.serve(s.h, "GET", "/v1/h/"+benchName+"/envelope", "", nil)
		r.t.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process envelope: %d %s", rec.Code, rec.Body.String())
		}
	}
	return nil
}

// probeRounds is how many of each missing operation the probe tail
// issues.
const probeRounds = 64

// traffic names the read-side operations a workload's own requests
// include.
type traffic struct{ query, feedback, describe bool }

// probe exercises, on the workload's final state, the operations its
// own traffic never issued, so every layer has a figure on every
// workload. A probed figure is the layer's cost on this data, not a
// share of the workload's time.
func (r *rig) probe(spec client.QuerySpec, own traffic) error {
	rng := client.Range{Lo: 1000, Hi: 1400}
	for i := 0; i < probeRounds; i++ {
		if !own.feedback {
			if err := r.feedback(0, rng); err != nil {
				return err
			}
			rng.Lo, rng.Hi = rng.Lo+37, rng.Hi+37
		}
		if !own.query {
			if err := r.query(0, spec); err != nil {
				return err
			}
		}
		if !own.describe {
			if err := r.describe(spec, maxBuckets); err != nil {
				return err
			}
		}
	}
	return nil
}

// cacheStats reads the primary in-process server's query-cache
// counters.
func (r *rig) cacheStats() (hitRatio float64, evictions uint64, err error) {
	var st wire.StatsResponse
	if err := json.Unmarshal(r.serve(r.sites[0].h, "GET", "/v1/stats", "", nil).Body.Bytes(), &st); err != nil {
		return 0, 0, err
	}
	return st.Cache.HitRatio, st.Cache.Evictions, nil
}
