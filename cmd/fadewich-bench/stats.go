package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// run may report it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether the
// sample supports it: at least minBeyond samples must lie above it, so
// p50 needs 20 samples, p99 1,000 and p999 10,000.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return nearestRank(xs, q), true
}

// nearestRank returns the nearest-rank q-quantile of xs, supported or
// not (0 when empty).
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail returns the highest percentile of xs that has minBeyond samples
// beyond it — the (minBeyond+1)-th largest value — or the maximum of a
// smaller sample. Per-slot layer timings report it beside their median:
// its percentile level depends on the sample size, which a fixed run
// length fixes.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - minBeyond
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same as the ones the
// benchmark's acceptance is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict labels one metric × workload of a comparison between a
// parent's runs (a) and a change's runs (b), by the rules the benchmark
// is judged by: a difference of medians within the bound is unchanged;
// beyond it, better or worse; and when either side's own spread is wider
// than the bound the comparison is unresolved, unless every run of b
// reads better than every run of a.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (label string, delta float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	delta = (mb - ma) / math.Abs(ma)
	gain := delta
	if !higherIsBetter {
		gain = -delta
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higherIsBetter) {
			return "better", delta
		}
		return "unresolved", delta
	}
	switch {
	case gain > bound:
		return "better", delta
	case gain < -bound:
		return "worse", delta
	default:
		return "unchanged", delta
	}
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	maxA, minA := a[0], a[0]
	for _, x := range a {
		maxA, minA = math.Max(maxA, x), math.Min(minA, x)
	}
	for _, y := range b {
		if higherIsBetter && y <= maxA || !higherIsBetter && y >= minA {
			return false
		}
	}
	return true
}
