package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dynahist/client"
	"dynahist/internal/distgen"
	"dynahist/internal/workload"
)

// Every input a run sends is generated here, from the seed alone,
// before any server starts: batches, query specs, feedback ranges and
// the per-client operation plans. The clients only replay them.

const (
	batchSize   = 256  // values per ingest batch during the timed phase
	preloadSize = 8192 // values per batch while pre-loading
	domain      = 5000 // distgen.Reference's largest value
	hotShapes   = 32   // distinct hot query bodies; they fit the 256-entry cache
	planLen     = 1 << 17
)

// batch is one ingest request: values inserted, or deleted when del.
type batch struct {
	del  bool
	vals []float64
}

// referenceValues returns n values of the paper's reference data set
// (§7: 2000 Zipf-sized clusters over [0, 5000]) in random order.
func referenceValues(seed int64, n int) []float64 {
	cfg := distgen.Reference(seed)
	cfg.Points = n
	ints, err := distgen.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("distgen: %v", err)) // the reference config is valid
	}
	ints = distgen.Shuffled(ints, seed)
	out := make([]float64, len(ints))
	for i, v := range ints {
		out[i] = float64(v)
	}
	return out
}

// chunk cuts vs into batches of size values (the last may be short).
func chunk(vs []float64, size int) [][]float64 {
	var out [][]float64
	for len(vs) > 0 {
		n := min(size, len(vs))
		out = append(out, vs[:n:n])
		vs = vs[n:]
	}
	return out
}

// mixedBatches turns the §7.3.1 MixedInsertDelete stream (delete rate
// 0.25) over distgen.Reference(seed) into ingest batches. A delete
// batch is cut only right after an insert batch has been cut, so every
// value it deletes was inserted by an earlier request: a closed-loop
// producer that waits for each ack deletes only values already acked.
func mixedBatches(seed int64) []batch {
	cfg := distgen.Reference(seed)
	vals, err := distgen.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("distgen: %v", err))
	}
	ops, err := workload.Build(vals, workload.Config{Pattern: workload.MixedInsertDelete, DeleteRate: 0.25, Seed: seed})
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	var out []batch
	var ins, del []float64
	flushIns := func() {
		if len(ins) > 0 {
			out = append(out, batch{vals: ins})
			ins = nil
		}
		for len(del) >= batchSize {
			out = append(out, batch{del: true, vals: del[:batchSize:batchSize]})
			del = del[batchSize:]
		}
	}
	for _, op := range ops {
		if op.Kind == workload.Insert {
			ins = append(ins, float64(op.Value))
			if len(ins) == batchSize {
				flushIns()
			}
		} else {
			del = append(del, float64(op.Value))
		}
	}
	flushIns()
	if len(del) > 0 {
		out = append(out, batch{del: true, vals: del})
	}
	return out
}

// ingestInputs: one MixedInsertDelete stream per producer.
type ingestInputs struct {
	streams [2][]batch
	probe   client.QuerySpec // the read-your-writes query after a visibility poll
}

func genIngest(seed int64) *ingestInputs {
	in := &ingestInputs{probe: client.QuerySpec{
		Quantiles: []float64{0.25, 0.5, 0.75, 0.99},
		CDF:       []float64{500, 1000, 2500, 4000},
		Ranges:    []client.Range{{Lo: 100, Hi: 900}, {Lo: 2000, Hi: 2600}},
	}}
	for i := range in.streams {
		in.streams[i] = mixedBatches(seed + int64(i))
	}
	return in
}

// opKind is one step of a query_mixed client's plan.
type opKind uint8

const (
	opHot opKind = iota
	opCold
	opInsert
	opFeedback
)

type planStep struct {
	kind opKind
	idx  int
}

// queryInputs: the pre-load, the hot shapes, and per client a plan
// whose cold specs, insert batches and feedback ranges are its own.
type queryInputs struct {
	preload  [][]float64
	hot      []client.QuerySpec
	plan     [2][]planStep
	cold     [2][]client.QuerySpec
	inserts  [2][][]float64
	feedback [2][]client.Range
}

func genQuery(seed int64) *queryInputs {
	const preloadN, insertN = 1 << 20, 1 << 17
	vals := referenceValues(seed, preloadN+2*insertN)
	in := &queryInputs{preload: chunk(vals[:preloadN], preloadSize)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < hotShapes; i++ {
		in.hot = append(in.hot, randomSpec(rng, 1+i%4, 2+i%8, i%3))
	}
	for c := range in.plan {
		lo := preloadN + c*insertN
		in.inserts[c] = chunk(vals[lo:lo+insertN], batchSize)
		zipf := rand.NewZipf(rng, 1.1, 1, hotShapes-1)
		plan := make([]planStep, planLen)
		for i := range plan {
			switch p := rng.Float64(); {
			case p < 0.60:
				plan[i] = planStep{opHot, int(zipf.Uint64())}
			case p < 0.95:
				plan[i] = planStep{opCold, len(in.cold[c])}
				in.cold[c] = append(in.cold[c], randomSpec(rng, 1+rng.Intn(4), 2+rng.Intn(8), rng.Intn(3)))
			case p < 0.99:
				plan[i] = planStep{opInsert, rng.Intn(len(in.inserts[c]))}
			default:
				plan[i] = planStep{opFeedback, len(in.feedback[c])}
				in.feedback[c] = append(in.feedback[c], randomRange(rng))
			}
		}
		in.plan[c] = plan
	}
	return in
}

// randomSpec draws a query of nq quantiles, ncdf CDF points and nr
// ranges. Its arguments are random floats, so two calls practically
// never produce the same request body.
func randomSpec(rng *rand.Rand, nq, ncdf, nr int) client.QuerySpec {
	var s client.QuerySpec
	for range nq {
		s.Quantiles = append(s.Quantiles, 0.001+0.998*rng.Float64())
	}
	sort.Float64s(s.Quantiles)
	for range ncdf {
		s.CDF = append(s.CDF, rng.Float64()*domain)
	}
	for range nr {
		s.Ranges = append(s.Ranges, randomRange(rng))
	}
	return s
}

func randomRange(rng *rand.Rand) client.Range {
	lo := float64(rng.Intn(domain))
	return client.Range{Lo: lo, Hi: min(lo+float64(10+rng.Intn(500)), domain)}
}

// fanoutInputs: two sites pre-loaded from different seeds, an insert
// pool per site, and one global Describe spec.
type fanoutInputs struct {
	preload [2][][]float64
	inserts [2][][]float64
	spec    client.QuerySpec
}

func genFanout(seed int64) *fanoutInputs {
	const preloadN, insertN = 1 << 18, 1 << 16
	in := &fanoutInputs{}
	for s := range in.preload {
		vals := referenceValues(seed+int64(s), preloadN+insertN)
		in.preload[s] = chunk(vals[:preloadN], preloadSize)
		in.inserts[s] = chunk(vals[preloadN:], batchSize)
	}
	rng := rand.New(rand.NewSource(seed))
	in.spec = client.QuerySpec{Quantiles: []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}}
	for i := 0; i < 32; i++ {
		in.spec.CDF = append(in.spec.CDF, float64(i)*domain/31)
	}
	for range 16 {
		in.spec.Ranges = append(in.spec.Ranges, randomRange(rng))
	}
	return in
}

// ksPoints are the CDF arguments the end-of-run accuracy read asks
// for: every integer of the domain and one past it, which is what
// metric.KS evaluates.
func ksPoints() []float64 {
	xs := make([]float64, domain+2)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}
