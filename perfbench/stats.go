package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// nearestRank returns the q-quantile (0 < q ≤ 1) of sorted samples by
// the nearest-rank rule: the smallest sample with at least q·n samples
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tail reports the highest percentile at or below want that still has
// tailMinBeyond samples beyond it: want itself once n ≥ 10/(1-want),
// lower for smaller samples. It returns the value, the percentile used
// (0–100) and how many samples lie beyond it. With n ≤ tailMinBeyond no
// percentile qualifies; the median is returned with its own count.
func tail(sorted []float64, want float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	k := int(math.Ceil(want * float64(n))) // 1-based rank of want
	if n-k < tailMinBeyond {
		k = n - tailMinBeyond
	}
	if k < 1 {
		k = (n + 1) / 2
	}
	return sorted[k-1], 100 * float64(k) / float64(n), n - k
}

// median of unsorted values (the mean of the middle two for even n).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// phase counts one stage of a run's ops. Every attempted op ends as
// exactly one of completed, failed or refused.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"ops_attempted"`
	Completed int    `json:"ops_completed"`
	Failed    int    `json:"ops_failed"`
	Refused   int    `json:"ops_refused"`
}

// balanced reports whether the phase's outcomes account for every
// attempted op.
func (p phase) balanced() bool {
	return p.Attempted == p.Completed+p.Failed+p.Refused
}

// add folds q's counts into p.
func (p *phase) add(q phase) {
	p.Attempted += q.Attempted
	p.Completed += q.Completed
	p.Failed += q.Failed
	p.Refused += q.Refused
}

// totals sums the phases of a run.
func totals(phases []phase) phase {
	t := phase{Name: "total"}
	for _, p := range phases {
		t.add(p)
	}
	return t
}
