// Package stats implements the statistical machinery FADEWICH is built on:
// descriptive statistics, windowed standard deviations (the MD module's core
// signal), histograms and Shannon entropy, autocorrelation, Gaussian kernel
// density estimation with an analytic CDF and percentile inversion (the MD
// normal profile), empirical CDFs, confusion matrices with
// precision/recall/F-measure (Fig 7, Table III), Pearson correlation
// matrices (Fig 11), and mutual information / relative mutual information
// (Fig 12, Table V). Everything is stdlib-only and allocation-conscious so
// the evaluation harness can sweep parameters over multi-day traces.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (the paper's feature
// definition divides by n, not n-1), or 0 for fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleVariance returns the unbiased (n-1) variance, used where an
// estimator rather than a descriptive feature is wanted.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// Min returns the minimum of xs. It returns +Inf for an empty slice so the
// caller's subsequent comparisons behave as identity.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics, the same convention as NumPy's
// default. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Autocorrelation returns the lag-k autocorrelation of the window xs as
// defined in Section IV-D1 of the paper:
//
//	R(k) = 1/((n-k)·σ²) · Σ_{j} (x_j − µ)(x_{j+k} − µ)
//
// A window with zero variance (e.g. a quantised RSSI stream that never
// moved) has undefined autocorrelation; we return 0 in that case, which is
// also the value a classifier should see for "no structure".
func Autocorrelation(xs []float64, k int) float64 {
	n := len(xs)
	if k < 0 || k >= n {
		return 0
	}
	mu := Mean(xs)
	variance := Variance(xs)
	if variance == 0 {
		return 0
	}
	var sum float64
	for j := 0; j+k < n; j++ {
		sum += (xs[j] - mu) * (xs[j+k] - mu)
	}
	return sum / (float64(n-k) * variance)
}

// PearsonCorrelation returns the Pearson correlation coefficient between xs
// and ys, or 0 when either series is constant or the lengths differ.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationMatrix returns the len(cols) × len(cols) Pearson correlation
// matrix of the given column vectors (Fig 11 computes this over the
// per-stream variances of all labelled samples).
func CorrelationMatrix(cols [][]float64) [][]float64 {
	n := len(cols)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := PearsonCorrelation(cols[i], cols[j])
			out[i][j] = c
			out[j][i] = c
		}
	}
	return out
}
