package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the fixed set of percentiles the tail metric may report. The
// tail is the highest of them with at least minBeyond samples above it, so a
// run with few samples reports a lower percentile instead of a single worst
// case.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to count as measured rather than as one outlier.
const minBeyond = 10

// rankOf returns the 1-based nearest-rank index of percentile q (0 < q <=
// 100) in n sorted samples.
func rankOf(q float64, n int) int {
	// The epsilon keeps float error in q/100*n (99.9% of 10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	k := int(math.Ceil(q/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile q of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// tail applies the tail rule to sorted samples: the highest ladder
// percentile with at least minBeyond samples beyond its rank. ok is false
// when even the median lacks that many, which means the run measured too
// few operations to speak of a tail.
func tail(sorted []float64) (q, v float64, ok bool) {
	n := len(sorted)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if n-rankOf(p, n) >= minBeyond {
			return p, sorted[rankOf(p, n)-1], true
		}
	}
	return 0, 0, false
}

// median returns the median of unsorted values (the mean of the middle two
// for an even count). It sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMs returns durations as sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work of
// that kind reports 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
