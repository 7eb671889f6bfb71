package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile is only as trustworthy as the tail that defines it, so p90
// needs at least 100 samples and p99 at least 1000.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// in n sorted samples: the smallest r with r/n ≥ p/100. Integer
// arithmetic keeps p90 of 100 samples at rank 90 exactly.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailOK reports whether n samples leave at least minTail samples beyond
// the p-th percentile.
func tailOK(n, p int) bool { return n > 0 && n-rank(n, p) >= minTail }

// minSamples is the smallest sample count for which the p-th percentile
// is reportable.
func minSamples(p int) int {
	n := 1
	for !tailOK(n, p) {
		n++
	}
	return n
}

// percentile returns the p-th nearest-rank percentile of samples, which
// it sorts in place. Failed rounds enter as +Inf, so a failure counts as
// missing every latency limit rather than vanishing from the tail.
func percentile(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1]
}

// tally counts rounds attempted and failed. A round fails if it errors,
// times out, has a rank that never completes, or diverges; a failed round
// is recorded and the run goes on.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) record(failed bool) {
	t.attempted++
	if failed {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// frac returns failed over attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return percentile(c, 50)
}
