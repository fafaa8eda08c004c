package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptyDistribution is returned when a KDE is requested over no
// observations.
var ErrEmptyDistribution = errors.New("stats: empty distribution")

// ErrUnsorted is returned by NewKDESorted for samples not in
// sort.Float64s order.
var ErrUnsorted = errors.New("stats: samples not sorted")

// KDE is a Gaussian kernel density estimate over a one-dimensional sample,
// exactly the construction Section IV-C1 of the paper uses for the MD
// module's normal profile:
//
//	f̂(r) = 1/(n·h) Σ_i K((r − r_i)/h)
//
// with K the standard Gaussian kernel and h the bandwidth. Because the
// kernel is Gaussian, the CDF has the closed form mean of Φ((x−r_i)/h),
// which lets the MD module invert percentiles without numerical
// integration of the density.
type KDE struct {
	samples []float64 // sorted ascending
	h       float64
}

// NewKDE builds a KDE over samples with the given bandwidth. A bandwidth
// <= 0 selects Silverman's rule of thumb. It returns
// ErrEmptyDistribution when samples is empty.
func NewKDE(samples []float64, bandwidth float64) (*KDE, error) {
	if len(samples) == 0 {
		return nil, ErrEmptyDistribution
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	k, err := NewKDESorted(sorted, bandwidth)
	if err != nil {
		return nil, err
	}
	return &k, nil
}

// NewKDESorted is NewKDE over samples already in sort.Float64s order
// (ascending, NaNs first). The KDE uses samples in place: the caller
// must not change them while it uses the KDE. It returns the KDE by
// value, so a caller that refits often can keep it without an
// allocation. It returns ErrUnsorted, after an O(n) check, for samples
// out of order.
func NewKDESorted(sorted []float64, bandwidth float64) (KDE, error) {
	if len(sorted) == 0 {
		return KDE{}, ErrEmptyDistribution
	}
	if !sort.Float64sAreSorted(sorted) {
		return KDE{}, ErrUnsorted
	}
	if bandwidth <= 0 {
		bandwidth = silvermanSorted(sorted)
	}
	return KDE{samples: sorted, h: bandwidth}, nil
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 · min(σ̂, IQR/1.34) · n^(−1/5), with a small positive floor so a
// constant sample still yields a usable (spiky) estimate.
func SilvermanBandwidth(samples []float64) float64 {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return silvermanSorted(sorted)
}

// silvermanSorted is SilvermanBandwidth on an already-sorted sample.
func silvermanSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 1
	}
	sigma := math.Sqrt(SampleVariance(sorted))
	iqr := percentileSorted(sorted, 75) - percentileSorted(sorted, 25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	h := 0.9 * spread * math.Pow(float64(n), -0.2)
	if h <= 1e-9 {
		h = 1e-3
	}
	return h
}

// Bandwidth returns the kernel bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.h }

// N returns the number of underlying observations.
func (k *KDE) N() int { return len(k.samples) }

// invSqrt2Pi is 1/√(2π), the standard normal density at 0.
const invSqrt2Pi = 0.3989422804014327

// Density evaluates the estimated probability density at x.
func (k *KDE) Density(x float64) float64 {
	var sum float64
	for _, s := range k.samples {
		z := (x - s) / k.h
		sum += invSqrt2Pi * math.Exp(-0.5*z*z)
	}
	return sum / (float64(len(k.samples)) * k.h)
}

// cdfCutoff is the |z| beyond which Φ(z) is treated as exactly 0 or 1; at
// 8 standard deviations the error is below 1e-15, far under the bisection
// tolerance of Percentile.
const cdfCutoff = 8

// CDF evaluates the estimated cumulative distribution function at x.
// Because the samples are kept sorted, kernels farther than cdfCutoff
// bandwidths from x contribute exactly 0 or 1, so the evaluation is
// O(log n + w) where w is the number of samples within the cutoff — this
// keeps the MD module's frequent profile refits cheap.
func (k *KDE) CDF(x float64) float64 {
	lo, hi := k.window(x)
	sum := float64(lo) // all samples below the window contribute Φ≈1
	for _, s := range k.samples[lo:hi] {
		sum += stdNormalCDF((x - s) / k.h)
	}
	return sum / float64(len(k.samples))
}

// window returns the index range of the samples within cdfCutoff
// bandwidths of x.
func (k *KDE) window(x float64) (lo, hi int) {
	lo = sort.SearchFloat64s(k.samples, x-cdfCutoff*k.h)
	hi = sort.SearchFloat64s(k.samples, x+cdfCutoff*k.h)
	return lo, hi
}

// stdNormalCDF is Φ(z) for the standard normal distribution.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Percentile inverts the CDF: it returns the x at which CDF(x) = p/100,
// found by bisection over an interval padded by 10 bandwidths beyond the
// sample range. This is how MD derives the (100−α)-th percentile anomaly
// threshold from the normal profile.
//
// The bisection starts at [min−10h, max+10h], halves until hi−lo < 1e-10
// or 100 steps, and returns the final midpoint. It needs about 37 CDF
// evaluations, but only the few near the root have an uncertain outcome,
// so Percentile skips the others and still returns the bisection's
// result bit for bit:
//
//   - Let R(x) be the CDF's windowed sum evaluated in exact arithmetic at
//     the rounded kernel arguments the code computes. R is
//     non-decreasing in x: the window bounds x±8h, each z = (x−s)/h and
//     the Erfc argument −z/√2 are monotone in x after rounding; a move
//     of the window either swaps a term in (0, 1) for an exact 1 or
//     adds a term ≥ 0.
//   - The computed CDF c(x) differs from R(x) by less than
//     E = 4·(n+32)·2⁻⁵²: Erfc's error is under 1 ulp, and the windowed
//     sum and final division add at most (n+2)·2⁻⁵³. The factor of 8 to
//     spare covers the rounding of target±2E.
//   - So if c(a) < target−2E, every x ≤ a has
//     c(x) ≤ R(x)+E ≤ R(a)+E ≤ c(a)+2E < target; and if c(b) ≥
//     target+2E, every x ≥ b has c(x) ≥ target.
//
// Newton's method from the empirical quantile finds a point near the
// root, and a and b are certified around it. The bisection is then
// replayed exactly, evaluating the CDF only at midpoints strictly inside
// (a, b). When a side cannot be certified (zero density, no convergence,
// a target within 2E of 0 or 1) that side is simply evaluated, so the
// worst case is the plain bisection.
func (k *KDE) Percentile(p float64) float64 {
	x, _ := k.percentile(p)
	return x
}

// percentile is Percentile that also returns the number of CDF
// evaluations it made, Newton steps included.
func (k *KDE) percentile(p float64) (x float64, evals int) {
	target := p / 100
	if target <= 0 {
		return k.samples[0] - 10*k.h, 0
	}
	if target >= 1 {
		return k.samples[len(k.samples)-1] + 10*k.h, 0
	}
	lo := k.samples[0] - 10*k.h
	hi := k.samples[len(k.samples)-1] + 10*k.h
	a, b, evals := k.bracket(p, lo, hi)
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		below := mid <= a
		if !below && !(mid >= b) {
			evals++
			below = k.CDF(mid) < target
		}
		if below {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return (lo + hi) / 2, evals
}

// Newton and certification limits for bracket. A Newton step below
// newtonTol bandwidths leaves an error orders of magnitude under the
// certification margin.
const (
	newtonSteps   = 8
	newtonTol     = 1e-6
	bracketWidens = 4
)

// bracket returns points a < b around the p-th percentile, certified
// (see Percentile) so that CDF(x) < p/100 for every x ≤ a and
// CDF(x) ≥ p/100 for every x ≥ b. A side it cannot certify is NaN, which
// every comparison treats as false, so the caller evaluates there. lo
// and hi clamp the Newton iterates to the bisection's start interval. It
// also returns the CDF evaluations it made.
func (k *KDE) bracket(p, lo, hi float64) (a, b float64, evals int) {
	a, b = math.NaN(), math.NaN()
	target := p / 100
	if math.IsNaN(target) || !(k.h > 0) || math.IsInf(k.h, 0) {
		return a, b, 0
	}
	x := percentileSorted(k.samples, p)
	var step, density float64
	for i := 0; i < newtonSteps; i++ {
		var c float64
		c, density = k.cdfDensity(x)
		evals++
		if !(density > 0) {
			return a, b, evals
		}
		step = (c - target) / density
		x = math.Min(math.Max(x-step, lo), hi)
		if math.Abs(step) <= newtonTol*k.h {
			break
		}
	}
	e := k.cdfErr()
	below, above := target-2*e, target+2*e
	d := 4 * e / density
	if math.Abs(step) > newtonTol*k.h {
		// Newton did not converge: its last step sizes the error.
		d += math.Abs(step)
	}
	for i := 0; i < bracketWidens && (math.IsNaN(a) || math.IsNaN(b)); i++ {
		if math.IsNaN(a) {
			evals++
			if k.CDF(x-d) < below {
				a = x - d
			}
		}
		if math.IsNaN(b) {
			evals++
			if k.CDF(x+d) >= above {
				b = x + d
			}
		}
		d *= 16
	}
	return a, b, evals
}

// cdfErr is E, the bound on |CDF(x) − R(x)| that Percentile's
// certification rests on.
func (k *KDE) cdfErr() float64 {
	return 4 * float64(len(k.samples)+32) * 0x1p-52
}

// cdfDensity returns the CDF and the density at x, both summed over the
// kernels within cdfCutoff bandwidths of x, as CDF does.
func (k *KDE) cdfDensity(x float64) (cdf, density float64) {
	lo, hi := k.window(x)
	sum := float64(lo)
	var dsum float64
	for _, s := range k.samples[lo:hi] {
		z := (x - s) / k.h
		sum += stdNormalCDF(z)
		dsum += invSqrt2Pi * math.Exp(-0.5*z*z)
	}
	n := float64(len(k.samples))
	return sum / n, dsum / (n * k.h)
}

// The Φ table: cubic-Hermite nodes every phiStep on [−cdfCutoff,
// cdfCutoff], one per 1/16 of a bandwidth.
const (
	phiStep  = 1.0 / 16
	phiNodes = 2*cdfCutoff*16 + 1
)

// phiTableErr bounds |phiTable(z).cdf − Φ(z)| for every float z. On a
// node interval the cubic-Hermite error is at most
// phiStep⁴/384 · max|Φ⁗| = 2⁻¹⁶/384 · max|φ‴|, and max|φ‴| = 0.55059
// (at z = √(3−√6)), so 2.1879e-8. The rounding of the table entries
// (Erfc and Exp within 1 ulp), of z+8 and of the Hermite arithmetic,
// and the rounded Erfc argument −z/√2 at which R (see Percentile)
// takes Φ, add under 1e-14, and beyond ±8 the clamp to Φ(±8) errs by
// under 1e-15; 2.2e-8 covers all of it. TestPhiTableErr measures
// 2.185e-8.
const phiTableErr = 2.2e-8

// phiTab holds, at each node z = −8 + i/16, Φ(z) and φ(z)·phiStep,
// Φ's derivative over one node interval.
var phiTab = func() (t [phiNodes][2]float64) {
	for i := range t {
		z := -cdfCutoff + float64(i)*phiStep
		t[i] = [2]float64{stdNormalCDF(z), invSqrt2Pi * math.Exp(-0.5*z*z) * phiStep}
	}
	return t
}()

// phiTable interpolates Φ(z) from phiTab by cubic Hermite, and φ(z) as
// the interpolant's derivative. Beyond the table it returns the end
// node's Φ and φ.
func phiTable(z float64) (cdf, density float64) {
	u := (z + cdfCutoff) / phiStep
	i, t := 0, 0.0
	switch {
	case !(u > 0): // NaN too
	case u >= phiNodes-1:
		i, t = phiNodes-2, 1
	default:
		i = int(u)
		t = u - float64(i)
	}
	n0, n1 := &phiTab[i], &phiTab[i+1]
	dp := n1[0] - n0[0]
	s := 1 - t
	cdf = n0[0] + t*t*(3-2*t)*dp + t*s*(s*n0[1]-t*n1[1])
	density = (6*t*s*dp + s*(1-3*t)*n0[1] + t*(3*t-2)*n1[1]) / phiStep
	return cdf, density
}

// phiTableSum is cdfDensity with each term taken from phiTable. It
// uses CDF's window and kernel arguments z, so the sum it rounds is,
// term by term, within phiTableErr of R(x) (see Percentile).
func (k *KDE) phiTableSum(x float64) (cdf, density float64) {
	lo, hi := k.window(x)
	sum := float64(lo)
	var dsum float64
	for _, s := range k.samples[lo:hi] {
		c, d := phiTable((x - s) / k.h)
		sum += c
		dsum += d
	}
	n := float64(len(k.samples))
	return sum / n, dsum / (n * k.h)
}

// PercentileBracket's Newton takes at most bracketSteps steps of at
// most a bandwidth each and brackets an iterate by ±bracketHalf
// bandwidths. It tries the bracket after every step under bracketTry
// bandwidths, which mostly leaves the iterate within bracketHalf of
// the root, and stops once a step is under bracketTol bandwidths.
const (
	bracketSteps = 16
	bracketTry   = 0.1
	bracketTol   = 0.0025
	bracketHalf  = 0.01
)

// PercentileBracket returns lo < Percentile(p) < hi, about 0.02
// bandwidths apart, for a fraction of Percentile's cost, or ok false
// when it cannot certify them. A caller that only compares values with
// the percentile can decide every value outside [lo, hi) without
// Percentile.
//
// Newton's method starts at start, or at the empirical quantile when
// start is not strictly inside the bisection's start interval (NaN
// included). A caller refitting a slowly changing sample passes the
// previous fit's percentile, or its bracket's midpoint, and saves
// steps. The start moves only where Newton goes, never what a
// certified bracket guarantees.
//
// Newton runs on phiTable's sums. The points a, b = x ∓ bracketHalf·h
// around an iterate x that a short step reached are certified by
// Percentile's argument with the margin 2E widened by phiTableErr: the
// table sum t(x) is within E + phiTableErr of R(x) (the n terms err by
// at most phiTableErr each, the division by n scales that back, and
// the rounding of the sum is the same as CDF's), so t(a) <
// target−2E−phiTableErr gives R(a) < target−E and CDF(x) < target for
// every x ≤ a, and t(b) ≥ target+2E+phiTableErr gives CDF(x) ≥ target
// for every x ≥ b. Newton stops at the first x that certifies.
//
// Percentile's bisection therefore only ever moves hi to midpoints
// above a and lo to midpoints below b, and returns a midpoint of its
// final [lo, hi]; bisectWidth bounds that interval's width, so widening
// a and b by it brackets the result.
//
// ok is false when p is not in (0, 100), the bandwidth is not finite
// and positive, the bisection's start interval is not finite, the table
// density is zero, or too low for any bracket to certify at an iterate
// whose table sum is within the margin of the target, or Newton
// converges, or runs out of steps, with no iterate certified.
func (k *KDE) PercentileBracket(p, start float64) (lo, hi float64, ok bool) {
	target := p / 100
	h := k.h
	if !(target > 0 && target < 1) || !(h > 0) || math.IsInf(h, 0) {
		return 0, 0, false
	}
	lo0 := k.samples[0] - 10*h
	hi0 := k.samples[len(k.samples)-1] + 10*h
	// Finite bounds exclude NaN and infinite samples; under half the
	// float range, no midpoint sum overflows.
	if !(math.Abs(lo0) < math.MaxFloat64/2 && math.Abs(hi0) < math.MaxFloat64/2) {
		return 0, 0, false
	}
	margin := 2*k.cdfErr() + phiTableErr
	// a and b certify only if t(a) < target−margin and t(b) ≥
	// target+margin. So once an iterate x has |t(x)−target| < margin,
	// every bracket that could certify holds x (the table sum is
	// monotone to far under the margin: each exact node slope is at
	// most 1.3 times its interval's secant, under the 3 up to which
	// cubic Hermite keeps monotone data monotone), and its table
	// density must average margin/(bracketHalf·h) over it. Within
	// 2·bracketHalf·h of x no kernel's table density changes by more
	// than 18 %, so under minDensity, half that average, no bracket of
	// width 2·bracketHalf·h certifies and Newton gives up. This is the
	// flat tail of md profiles with exactly 1 % of the values far above
	// the rest: the target is reached only where the lower kernels' CDF
	// flattens out, and Newton would creep on at falling density for
	// all its steps.
	minDensity := margin / (2 * bracketHalf * h)
	x := start
	if !(lo0 < x && x < hi0) {
		x = percentileSorted(k.samples, p)
	}
	// certified reports whether a, b = x ∓ bracketHalf·h certify.
	certified := func(x float64) bool {
		a, b := x-bracketHalf*h, x+bracketHalf*h
		if !(lo0 < a && b < hi0) {
			return false
		}
		if c, _ := k.phiTableSum(a); !(c < target-margin) {
			return false
		}
		c, _ := k.phiTableSum(b)
		return c >= target+margin
	}
	for i := 0; i < bracketSteps; i++ {
		c, density := k.phiTableSum(x)
		if !(density > 0) || math.Abs(c-target) < margin && density < minDensity {
			return 0, 0, false
		}
		// A sparse tail's density overshoots: move at most a bandwidth.
		step := math.Min(math.Max((c-target)/density, -h), h)
		x = math.Min(math.Max(x-step, lo0), hi0)
		if math.Abs(step) > bracketTry*h {
			continue
		}
		if certified(x) {
			w := bisectWidth(lo0, hi0)
			return x - bracketHalf*h - w, x + bracketHalf*h + w, true
		}
		if math.Abs(step) <= bracketTol*h {
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// bisectWidth bounds, with room for the rounding of a−w and b+w, the
// width hi−lo of the interval Percentile's bisection over [lo0, hi0]
// ends with. The loop stops once the computed hi−lo is under 1e-10,
// which leaves the exact width at most one rounding above it, or after
// 100 halvings. Each rounded midpoint lies within M·2⁻⁵³ of the exact
// one, M the larger of |lo0| and |hi0|, so a halving leaves at most
// half the width plus M·2⁻⁵³, and 100 leave at most
// (hi0−lo0)·2⁻¹⁰⁰ + M·2⁻⁵². Past 1e6, where floats are more than 1e-10
// apart, that ulp term is what stops the interval. The bound returned
// is over 1.5 times the larger of the two.
func bisectWidth(lo0, hi0 float64) float64 {
	m := math.Max(math.Abs(lo0), math.Abs(hi0))
	return 3e-10 + (hi0-lo0)*0x1p-99 + m*0x1p-50
}

// Samples returns a copy of the (sorted) underlying observations.
func (k *KDE) Samples() []float64 {
	out := make([]float64, len(k.samples))
	copy(out, k.samples)
	return out
}
