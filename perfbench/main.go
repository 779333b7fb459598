// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds histserved and this program from the checkout
// and then runs
//
//	perfbench -histserved BIN --workload NAME --seed N --seconds S --trace 0|1
//
// from the root of the checkout.
//
// A run starts fresh histserved processes in a new directory under
// .bench_build/runs, drives them over loopback from this one process
// through the public client package, checks every answer, stops and
// reaps the servers, and removes the directory. Set-up (start the
// servers, create and pre-load the histogram, wait until everything is
// digested) is repeated at least five times and setup_s is its median;
// the timed phase starts after the last set-up and a warm-up of at
// least a second that lasts until the workload is in its steady state
// (query_mixed: the tuner's feedback journal is full). The load is a
// closed loop: every client waits for each reply before its next
// request, and no workload holds more than two connections. The
// end-to-end figures are medians over the timed phase's one-second
// windows, leaving out windows in which other processes or the
// hypervisor took more than 5% of the machine's CPU (see foreignCPU);
// a run that loses windows that way measures up to a third longer.
//
// Workloads (inputs are generated from the seed before any server
// starts; see gen.go):
//
//	ingest_durable  histserved -wal-dir -wal-sync always, one DADO
//	                histogram (1024 B, 2 shards); 2 producers replay their
//	                own §7.3.1 MixedInsertDelete streams (delete rate 0.25)
//	                over distgen.Reference(seed+i) as 256-value batches; on
//	                every 8th insert ack a producer polls /v1/wal/status
//	                until the ack's LSN is digested, then reads one query.
//	query_mixed     histserved -tuning, one DADO histogram pre-loaded with
//	                2^20 reference values; 2 clients: 60% hot POST /query
//	                (32 shapes, Zipf), 35% cold never-repeated shapes, 4%
//	                256-value binary inserts, 1% feedback with the exact
//	                count of acked values in the range.
//	fanout_global   two sites (-site-id a, b) pre-loaded from different
//	                seeds; 1 client runs client.Fanout.Describe with
//	                MaxBuckets 64, inserting a 256-value batch into one
//	                site (alternating) before every 10th Describe.
//
// With --trace 0 the last line of standard output is a JSON object of
// the end-to-end metrics; with --trace 1 the timed phase alternates
// traced and untraced 250 ms slices (their difference is the tracing
// overhead), and the layer replay in replay.go produces the per-layer
// metrics. Every line before the
// JSON is a human-readable report: host provenance, every metric with
// its unit and sample count, and the self-time split of the replayed
// requests. Each run's full result is also stored in
// .bench_build/results; "perfbench -summarize" prints every stored
// run's value of each metric with the median and quartiles.
//
// The exit code is 0 when every output check passed, 1 when one
// failed, and 2 when the run could not be made.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	histserved string
	work       string
	wrongTruth bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.histserved, "histserved", ".bench_build/histserved", "histserved binary to run")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for run state, traces and results")
	fs.BoolVar(&o.wrongTruth, "wrong-truth", false, "add a point the server never saw to the truth before the end checks (tests the checks)")
	summarize := fs.Bool("summarize", false, "print every stored result's metrics with median and quartiles, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := printSummary(stdout, filepath.Join(o.work, "results")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res.report(stdout)
	if err := res.store(filepath.Join(o.work, "results")); err != nil {
		fmt.Fprintln(stderr, "perfbench: storing result:", err)
	}
	line, _ := json.Marshal(res.line())
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

type result struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Seconds   int        `json:"seconds"`
	Trace     int        `json:"trace"`
	Started   string     `json:"started"`
	Host      host       `json:"host"`
	SetupRuns []float64  `json:"setup_s_runs"`
	Correct   bool       `json:"correct"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
	Failures  []string   `json:"failures,omitempty"`
	Metrics   []metric   `json:"metrics"`
	Extra     []metric   `json:"extra"`
	Overhead  []metric   `json:"trace_overhead,omitempty"`
	Split     []splitRow `json:"self_time_split,omitempty"`
	SplitRoot string     `json:"self_time_root,omitempty"`
	TraceFile string     `json:"trace_file,omitempty"`
	// ForeignCPU is the share of the machine's CPU that went to
	// anything but the benchmark and its servers: in the windows the
	// end-to-end figures are taken from, and in all windows. Windows
	// counts both sets of windows.
	ForeignCPU [2]float64 `json:"foreign_cpu_share"`
	Windows    [2]int     `json:"windows"`
}

func execute(o options) (*result, error) {
	rn, err := newRunner(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.work, "runs",
		fmt.Sprintf("%s-s%d-t%d-%d-%d", o.workload, o.seed, o.trace, os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	bin, err := filepath.Abs(o.histserved)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	res := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Started: time.Now().UTC().Format(time.RFC3339)}
	res.Host = probeHost(".", runDir)

	// Set-up is repeated — at least five times, and until two seconds
	// went into it, at most 25 — and setup_s is the median. A traced
	// run sets up once.
	var d *deployment
	var spent time.Duration
	for i := 0; i < 25; i++ {
		if o.trace == 1 && i == 1 || i >= 5 && spent >= 2*time.Second {
			break
		}
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		d, err = rn.setup(ctx, bin, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	if err := rn.bind(d); err != nil {
		return nil, err
	}

	// Flush every dirty page — the build, earlier runs' logs, this
	// run's set-ups — so the timed phase's fsyncs do not pay for
	// writeback that happened to be pending when it began.
	syscall.Sync()
	// Warm up a second at a time until the workload is in its steady
	// state.
	n := rn.workers()
	warm := newRecs(n, time.Now())
	for t0 := time.Now(); time.Since(t0) < maxWarmUp; {
		loop(ctx, n, time.Second, func(ctx context.Context, w int) { rn.step(ctx, w, warm[w]) })
		if rn.steady() {
			break
		}
	}

	// The timed phase. A traced run alternates untraced and traced
	// slices, so both see the same server state and their difference is
	// the tracing overhead.
	var tr *tracer
	const slice = 250 * time.Millisecond
	start := time.Now()
	plain, traced := newRecs(n, start), newRecs(n, start)
	if o.trace == 1 {
		tr = newTracer()
	}
	foreign := sampleForeignCPU(d.pids(), start)
	step := func(ctx context.Context, w int) {
		if tr != nil && (time.Since(start)/slice)%2 == 1 {
			rn.step(withTracer(ctx, tr), w, traced[w])
			return
		}
		rn.step(ctx, w, plain[w])
	}
	phase := time.Duration(o.seconds) * time.Second
	loop(ctx, n, phase, step)
	// A run that lost windows to other load goes on, a second at a
	// time and at most a third longer, until it has as many quiet
	// windows as a quiet run.
	for time.Since(start) < phase+phase/3 && ctx.Err() == nil {
		if quiet, noisy := foreign.counts(); noisy == 0 || quiet >= o.seconds {
			break
		}
		loop(ctx, n, time.Second, step)
	}
	elapsed := time.Since(start)
	foreign.stop()
	windows := max(int(elapsed/window), 1)
	keep, every := foreign.quiet(windows), make([]bool, windows)
	for i := range every {
		every[i] = true
	}
	res.ForeignCPU = [2]float64{foreign.share(keep), foreign.share(every)}
	for _, k := range keep {
		if k {
			res.Windows[0]++
		}
	}
	res.Windows[1] = windows
	end := &rec{origin: time.Now()}
	if o.wrongTruth {
		if err := rn.truths()[0].insert([]float64{domain / 2}); err != nil {
			return nil, err
		}
	}
	var ec endCheck
	rn.finish(ctx, &ec, end)
	for _, err := range ec.errs {
		end.attempted++
		end.fail(err)
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading server memory: %w", err)
	}
	calls := int64(0)
	all := append(append(append(append([]*rec{}, warm...), plain...), traced...), end)
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		calls += r.calls
		res.Failures = append(res.Failures, r.errs...)
	}
	retries := rn.roundTrips() - calls
	d.stop()
	stopped = true

	share := 1.0
	if tr != nil {
		share = 0.5
	}
	e2e, tails := endToEnd(plain, keep, share, median(res.SetupRuns), len(res.SetupRuns), rss)
	failRatio := float64(res.Failed) / float64(max(res.Attempted, 1))
	checks := []metric{
		{Name: "ks_stat", Unit: "ks", Value: ec.ks, Samples: 1},
		{Name: "count_exact_misses", Unit: "count", Value: float64(ec.exactMisses), Samples: ec.totals},
		{Name: "fail_ratio", Unit: "ratio", Value: failRatio, Samples: int(res.Attempted)},
	}
	res.Correct = res.Failed == 0
	if tr == nil {
		res.Metrics = e2e
		res.Extra = append(append(tails, checks...), metric{Name: "query_total_rel_err", Unit: "ratio", Value: ec.queryTotalErr, Samples: 1})
		return res, nil
	}

	withTrace, tracedTails := endToEnd(traced, keep, share, median(res.SetupRuns), len(res.SetupRuns), rss)
	for i, m := range append(withTrace, tracedTails...) {
		base := append(e2e, tails...)[i]
		if m.Name == "setup_s" || m.Name == "rss_peak_mb" {
			continue // measured outside the sliced phase: tracing cannot touch them
		}
		res.Overhead = append(res.Overhead, metric{Name: m.Name, Unit: m.Unit, Value: m.Value - base.Value, Samples: m.Samples})
	}
	budget := min(max(time.Second, time.Duration(o.seconds)*time.Second/2), 5*time.Second)
	rt := newTracer()
	rg, err := rn.replay(rt, filepath.Join(runDir, "replay"), budget)
	if rg != nil {
		defer rg.close()
	}
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	layers, err := layerMetrics(rt, rg, retries)
	if err != nil {
		return nil, err
	}
	for _, m := range append(tails, checks...) {
		m.Name = "e2e." + m.Name
		layers = append(layers, m)
	}
	res.Metrics = layers
	res.Extra = clientSpans(tr)
	res.SplitRoot = "req.write"
	if o.workload == "fanout_global" {
		res.SplitRoot = "req.describe"
	} else if o.workload == "query_mixed" {
		res.SplitRoot = "req.query"
	}
	var roots, overfull int
	res.Split, roots, overfull = rt.split(res.SplitRoot)
	if roots == 0 || overfull > 0 {
		res.Correct = false
		res.Attempted++
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("trace: %d of %d %s spans have children longer than themselves", overfull, roots, res.SplitRoot))
	}
	if err := os.MkdirAll(filepath.Join(o.work, "traces"), 0o755); err == nil {
		res.TraceFile = filepath.Join(o.work, "traces", fmt.Sprintf("%s-s%d-%d.jsonl", o.workload, o.seed, time.Now().UnixNano()))
		if err := rt.write(res.TraceFile); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func newRecs(n int, origin time.Time) []*rec {
	out := make([]*rec, n)
	for i := range out {
		out[i] = &rec{origin: origin}
	}
	return out
}

// maxWarmUp bounds the warm-up of a workload that does not reach its
// steady state.
const maxWarmUp = 20 * time.Second

// loop runs n closed-loop workers, each calling step until d has
// passed.
func loop(ctx context.Context, n int, d time.Duration, step func(ctx context.Context, w int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				step(ctx, w)
			}
		}()
	}
	wg.Wait()
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// window is the width of the slices the timed phase is cut into. Each
// latency figure is taken per window and the median over the quiet
// windows (foreignCPU.quiet) is reported; each rate is the mean of the
// middle half of those windows' rates. A neighbour that takes the CPUs
// for a few seconds, or a burst of noise in the program's own windows,
// then moves neither.
const window = time.Second

// endToEnd computes the end-to-end metrics over the windows of the
// timed phase marked in keep, and the latency tails over the whole
// phase. share is the fraction of the phase the recs were active (0.5
// for each half of a traced run's alternating slices).
//
// The tails are printed but carry no bound: on a two-CPU machine shared
// with other tenants their run-to-run spread is 0.4–1.3 of their
// median, wider than any bound that could still catch a regression.
// The traced run reports them among the per-layer metrics.
func endToEnd(recs []*rec, keep []bool, share, setup float64, setupRuns int, rss float64) (gated, tails []metric) {
	var write, read, vis []sample
	for _, r := range recs {
		write = append(write, r.write...)
		read = append(read, r.read...)
		vis = append(vis, r.visible...)
	}
	width := window.Seconds() * share
	valueRate := func(s []sample) float64 { return float64(values(s)) / width }
	opRate := func(s []sample) float64 { return float64(len(s)) / width }
	gated = []metric{
		{"setup_s", "s", setup, setupRuns},
		{"write_p50_ms", "ms", median(perWindow(write, keep, latency(0.50))), len(write)},
		{"write_values_per_s", "1/s", midMean(perWindow(write, keep, valueRate)), len(write)},
		{"read_p50_ms", "ms", median(perWindow(read, keep, latency(0.50))), len(read)},
		{"reads_per_s", "1/s", midMean(perWindow(read, keep, opRate)), len(read)},
		{"visible_p50_ms", "ms", median(perWindow(vis, keep, latency(0.50))), len(vis)},
		{"rss_peak_mb", "MiB", rss, 1},
	}
	tails = []metric{
		{"write_p99_ms", "ms", tail(write), len(write)},
		{"read_p99_ms", "ms", tail(read), len(read)},
		{"visible_p99_ms", "ms", tail(vis), len(vis)},
	}
	return gated, tails
}

// tail is the 99th-percentile latency or, with fewer than 1000 samples,
// the highest percentile that still has ten samples beyond it.
func tail(s []sample) float64 {
	q := 0.99
	if n := float64(len(s)); n < 1000 {
		q = max(0.5, 1-10/n)
	}
	return latency(q)(s)
}

// perWindow returns f of the samples that completed in each window
// marked in keep.
func perWindow(s []sample, keep []bool, f func([]sample) float64) []float64 {
	per := make([][]sample, len(keep))
	for _, x := range s {
		if i := int(x.at / window.Seconds()); i < len(keep) && keep[i] {
			per[i] = append(per[i], x)
		}
	}
	var vals []float64
	for i, w := range per {
		if keep[i] {
			vals = append(vals, f(w))
		}
	}
	return vals
}

// latency returns the nearest-rank q-quantile of a window's latencies;
// in a window of fewer than 1/(1−q) samples that is its largest.
func latency(q float64) func([]sample) float64 {
	return func(s []sample) float64 {
		ls := make([]float64, len(s))
		for i, x := range s {
			ls[i] = x.ms
		}
		return percentile(ls, q)
	}
}

func values(s []sample) int {
	n := 0
	for _, x := range s {
		n += x.n
	}
	return n
}

// midMean is the mean of the values between the first and third
// quartile.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// clientSpans summarises the client-side spans of the traced slices.
func clientSpans(t *tracer) []metric {
	var out []metric
	for _, name := range []string{"client.insert", "client.delete", "client.query", "client.feedback", "client.describe", "client.wal_status", "http.roundtrip"} {
		if d := t.durationsUS(name); len(d) > 0 {
			out = append(out, metric{Name: name + "_us", Unit: "us", Value: percentile(d, 0.5), Samples: len(d)})
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics from the replay's spans
// and counters.
func layerMetrics(t *tracer, r *rig, retries int64) ([]metric, error) {
	p := func(name, span string, q float64) metric {
		d := t.durationsUS(span)
		return metric{Name: name, Unit: "us", Value: percentile(d, q), Samples: len(d)}
	}
	s := func(name, sample, unit string) metric {
		d := t.samplesOf(sample)
		return metric{Name: name, Unit: unit, Value: percentile(d, 0.5), Samples: len(d)}
	}
	hit, evictions, err := r.cacheStats()
	if err != nil {
		return nil, fmt.Errorf("reading in-process stats: %w", err)
	}
	obsNS := p("obs.observe_ns", "obs.observe", 0.5)
	obsNS.Unit, obsNS.Value = "ns", obsNS.Value*1e3
	appends := max(r.appends, 1)
	st := r.log.Status()
	return []metric{
		{Name: "client.retries", Unit: "count", Value: float64(retries), Samples: 1},
		p("wire.decode_batch_us", "wire.decode_batch", 0.5),
		p("wire.query_codec_us", "wire.query_codec", 0.5),
		p("server.insert_handler_us", "server.insert_handler", 0.5),
		p("server.query_handler_us", "server.query_handler", 0.5),
		p("server.envelope_handler_us", "server.envelope_handler", 0.5),
		{Name: "server.cache_hit_ratio", Unit: "ratio", Value: hit, Samples: 1},
		{Name: "server.cache_evictions", Unit: "count", Value: float64(evictions), Samples: 1},
		p("server.digest_wait_us", "server.digest_wait", 0.5),
		p("server.digest_apply_us", "server.digest_apply", 0.5),
		p("wal.append_us", "wal.append", 0.5),
		p("wal.append_p99_us", "wal.append", 0.99),
		{Name: "wal.fsyncs_per_append", Unit: "ratio", Value: float64(r.log.Fsyncs()) / float64(appends), Samples: int(r.appends)},
		{Name: "wal.bytes_per_value", Unit: "B", Value: float64(st.TotalBytes) / float64(max(r.appendedValues, 1)), Samples: int(r.appends)},
		p("shard.insert_batch_us", "shard.insert_batch", 0.5),
		p("shard.total_us", "shard.total", 0.5),
		s("shard.view_build_us", "shard.view_build", "us"),
		p("core.insert_batch_us", "core.insert_batch", 0.5),
		{Name: "core.reorganisations_per_kvalue", Unit: "count", Value: float64(r.reorganisations()-r.reorgBase) * 1000 / float64(max(r.appliedValues, 1)), Samples: int(r.appliedValues)},
		p("union.superpose_us", "union.superpose", 0.5),
		s("union.buckets_in", "union.buckets_in", "count"),
		p("union.reduce_us", "union.reduce", 0.5),
		p("histogram.describe_us", "histogram.describe", 0.5),
		p("tuner.feedback_us", "tuner.feedback", 0.5),
		p("tuner.tuned_view_us", "tuner.tuned_view", 0.5),
		p("envelope.encode_us", "envelope.encode", 0.5),
		p("envelope.restore_us", "envelope.restore", 0.5),
		s("envelope.bytes", "envelope.bytes", "B"),
		obsNS,
	}, nil
}

// line is the last line of a run's output.
func (r *result) line() any {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(r.Metrics))
	for _, x := range r.Metrics {
		m[x.Name] = val{x.Value, x.Unit}
	}
	return struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s data_fs=%s git_rev=%s tree=%s source_sha256=%s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.DataFS, h.GitRev, h.GitDirty, h.SourceHash)
	fmt.Fprintf(w, "foreign CPU share: %.4f in the %d windows measured, %.4f in all %d\n", r.ForeignCPU[0], r.Windows[0], r.ForeignCPU[1], r.Windows[1])
	fmt.Fprintf(w, "setup_s runs:")
	for _, s := range r.SetupRuns {
		fmt.Fprintf(w, " %.4f", s)
	}
	fmt.Fprintln(w)
	for _, group := range []struct {
		tag string
		ms  []metric
	}{{"metric", r.Metrics}, {"extra", r.Extra}, {"trace_overhead", r.Overhead}} {
		for _, m := range group.ms {
			fmt.Fprintf(w, "%s %s = %.6g %s (n=%d)\n", group.tag, m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	if len(r.Split) > 0 {
		fmt.Fprintf(w, "self-time split of %s:\n", r.SplitRoot)
		for _, row := range r.Split {
			fmt.Fprintf(w, "  %-28s %12.1f us %6.1f%%\n", row.Name, row.US, 100*row.Share)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
}

func (r *result) store(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-s%d-t%d-%d.json", time.Now().UTC().Format("20060102T150405"), r.Workload, r.Seed, r.Trace, os.Getpid())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// printSummary prints, per workload and trace mode, every stored run's
// value of each metric with their median, quartiles and spread (the
// interquartile distance as a share of the median).
func printSummary(w io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return errors.New("no stored results in " + dir)
	}
	type key struct {
		workload, source string
		trace            int
	}
	values := make(map[key]map[string][]float64)
	units := make(map[string]string)
	hosts := make(map[key]host)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		k := key{r.Workload, r.Host.SourceHash, r.Trace}
		if values[k] == nil {
			values[k] = make(map[string][]float64)
		}
		hosts[k] = r.Host
		for _, m := range append(append([]metric{}, r.Metrics...), r.Extra...) {
			values[k][m.Name] = append(values[k][m.Name], m.Value)
			units[m.Name] = m.Unit
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.source < b.source
	})
	for _, k := range keys {
		h := hosts[k]
		fmt.Fprintf(w, "== %s trace=%d source_sha256=%s git_rev=%s cpu=%q nproc=%d data_fs=%s\n",
			k.workload, k.trace, k.source, h.GitRev, h.CPUModel, h.NProc, h.DataFS)
		names := make([]string, 0, len(values[k]))
		for n := range values[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vs := values[k][n]
			q1, med, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(w, "%-34s %-6s n=%-3d median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.3f runs=%v\n",
				n, units[n], len(vs), med, q1, q3, spread, vs)
		}
	}
	return nil
}
