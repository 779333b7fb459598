package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"dynahist/client"
	"dynahist/internal/dist"
	quality "dynahist/internal/metric"
)

// truth is the exact multiset of acknowledged values (internal/dist),
// the reference every served answer is checked against. Clients fold
// a batch in once its ack arrives; the net count is the number of
// points the server must report.
type truth struct {
	mu  sync.Mutex
	t   *dist.Tracker
	net int64
}

func newTruth() *truth { return &truth{t: dist.New(domain)} }

func (tr *truth) apply(b batch) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, v := range b.vals {
		var err error
		if b.del {
			err = tr.t.Delete(int(v))
		} else {
			err = tr.t.Insert(int(v))
		}
		if err != nil {
			return fmt.Errorf("truth: value %d of batch: %w", i, err)
		}
	}
	if b.del {
		tr.net -= int64(len(b.vals))
	} else {
		tr.net += int64(len(b.vals))
	}
	return nil
}

func (tr *truth) insert(vs []float64) error { return tr.apply(batch{vals: vs}) }

// rangeCount is the exact number of acknowledged points in [lo, hi].
func (tr *truth) rangeCount(r client.Range) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return float64(tr.t.RangeCount(int(r.Lo), int(r.Hi)))
}

// merged returns a tracker holding every point of the given truths.
func merged(ts ...*truth) *dist.Tracker {
	out := dist.New(domain)
	for _, tr := range ts {
		tr.mu.Lock()
		vs, cs := tr.t.NonZero()
		for i, v := range vs {
			_ = out.InsertN(v, cs[i]) // same domain, non-negative counts
		}
		tr.mu.Unlock()
	}
	return out
}

func netCount(ts ...*truth) float64 {
	var n int64
	for _, tr := range ts {
		tr.mu.Lock()
		n += tr.net
		tr.mu.Unlock()
	}
	return float64(n)
}

// relTol is the relative tolerance of the total checks.
const relTol = 1e-12

// ksLimit is the accuracy floor of the end-of-run check: the reference
// workloads are summarised to a KS distance near 0.01, so a served CDF
// this far from the truth is wrong, not merely less accurate.
const ksLimit = 0.1

// checkSummary verifies one read answer against the spec it asked:
// one answer per argument, a CDF monotone in x and within [0, 1],
// quantiles non-decreasing in q, range estimates non-negative.
func checkSummary(spec client.QuerySpec, s client.Summary) error {
	if len(s.Quantiles) != len(spec.Quantiles) || len(s.CDF) != len(spec.CDF) || len(s.Ranges) != len(spec.Ranges) {
		return fmt.Errorf("answer counts %d/%d/%d, asked %d/%d/%d",
			len(s.Quantiles), len(s.CDF), len(s.Ranges), len(spec.Quantiles), len(spec.CDF), len(spec.Ranges))
	}
	if math.IsNaN(s.Total) || s.Total < 0 {
		return fmt.Errorf("total %v", s.Total)
	}
	idx := make([]int, len(spec.CDF))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return spec.CDF[idx[a]] < spec.CDF[idx[b]] })
	prev := 0.0
	for _, i := range idx {
		c := s.CDF[i]
		if !(c >= 0 && c <= 1) {
			return fmt.Errorf("CDF(%v) = %v outside [0, 1]", spec.CDF[i], c)
		}
		if c < prev {
			return fmt.Errorf("CDF decreases to %v at x = %v", c, spec.CDF[i])
		}
		prev = c
	}
	for i := 1; i < len(spec.Quantiles); i++ {
		if spec.Quantiles[i] >= spec.Quantiles[i-1] && s.Quantiles[i] < s.Quantiles[i-1] {
			return fmt.Errorf("quantile(%v) = %v below quantile(%v) = %v",
				spec.Quantiles[i], s.Quantiles[i], spec.Quantiles[i-1], s.Quantiles[i-1])
		}
	}
	for i, r := range s.Ranges {
		if !(r >= 0) {
			return fmt.Errorf("range [%v, %v] estimate %v", spec.Ranges[i].Lo, spec.Ranges[i].Hi, r)
		}
	}
	return nil
}

// checkGlobal adds the §8 check to a fanout answer: every site
// answered, and the global total is the sum of the site totals.
func checkGlobal(spec client.QuerySpec, g client.GlobalSummary) error {
	if g.Partial {
		for _, s := range g.Sites {
			if s.Err != nil {
				return fmt.Errorf("partial answer: site %s: %w", s.BaseURL, s.Err)
			}
		}
		return errors.New("partial answer")
	}
	var sum float64
	for _, s := range g.Sites {
		sum += s.Total
	}
	if !closeRel(g.Total, sum) {
		return fmt.Errorf("global total %v, site totals sum to %v", g.Total, sum)
	}
	return checkSummary(spec, g.Summary)
}

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// endCheck accumulates the end-of-run verdicts: total comparisons
// (within relTol, and the count of inexact ones reported as-is) and
// the KS accuracy of the served CDF.
type endCheck struct {
	totals        int
	exactMisses   int
	ks            float64
	queryTotalErr float64 // |query answer's total − acked| / acked
	errs          []error
}

func (e *endCheck) total(what string, served, want float64) {
	e.totals++
	if served != want {
		e.exactMisses++
	}
	if !closeRel(served, want) {
		e.errs = append(e.errs, fmt.Errorf("%s: served total %v, acked %v", what, served, want))
	}
}

// accuracy computes the KS distance between a CDF answered at
// ksPoints and the exact distribution.
func (e *endCheck) accuracy(cdf []float64, t *dist.Tracker) {
	if len(cdf) != domain+2 {
		e.errs = append(e.errs, fmt.Errorf("accuracy read returned %d CDF points", len(cdf)))
		return
	}
	ks, err := quality.KS(func(x float64) float64 { return cdf[int(x)] }, t)
	if err != nil {
		e.errs = append(e.errs, fmt.Errorf("KS: %w", err))
		return
	}
	e.ks = ks
	if !(ks <= ksLimit) {
		e.errs = append(e.errs, fmt.Errorf("KS distance %v above %v", ks, ksLimit))
	}
}
