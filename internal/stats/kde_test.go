package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"fadewich/internal/rng"
)

func gaussianSample(seed uint64, n int, mean, sd float64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Normal(mean, sd)
	}
	return xs
}

func TestNewKDEEmpty(t *testing.T) {
	if _, err := NewKDE(nil, 0); err == nil {
		t.Fatal("expected error for empty sample")
	}
}

func TestKDEDensityIntegratesToOne(t *testing.T) {
	xs := gaussianSample(1, 500, 0, 1)
	kde, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoidal integration over ±6σ.
	var integral float64
	const step = 0.01
	for x := -6.0; x < 6; x += step {
		integral += kde.Density(x) * step
	}
	if !almost(integral, 1, 0.01) {
		t.Fatalf("density integral %v, want ≈1", integral)
	}
}

func TestKDECDFMonotoneAndBounded(t *testing.T) {
	xs := gaussianSample(2, 300, 5, 2)
	kde, _ := NewKDE(xs, 0)
	prev := -1.0
	for x := -5.0; x <= 15; x += 0.25 {
		c := kde.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v", x)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of [0,1]: %v", c)
		}
		prev = c
	}
	if c := kde.CDF(-100); !almost(c, 0, 1e-9) {
		t.Fatalf("CDF(-inf) = %v", c)
	}
	if c := kde.CDF(100); !almost(c, 1, 1e-9) {
		t.Fatalf("CDF(+inf) = %v", c)
	}
}

func TestKDEPercentileInvertsCDF(t *testing.T) {
	xs := gaussianSample(3, 400, 0, 1)
	kde, _ := NewKDE(xs, 0)
	for _, p := range []float64{1, 25, 50, 75, 99} {
		x := kde.Percentile(p)
		if c := kde.CDF(x); !almost(c, p/100, 1e-4) {
			t.Fatalf("CDF(P%v) = %v", p, c)
		}
	}
}

func TestKDEPercentileMatchesGaussian(t *testing.T) {
	// For a large Gaussian sample the KDE's 99th percentile should land
	// near the true z=2.326.
	xs := gaussianSample(4, 5000, 0, 1)
	kde, _ := NewKDE(xs, 0)
	if p := kde.Percentile(99); math.Abs(p-2.326) > 0.2 {
		t.Fatalf("P99 = %v, want ≈2.33", p)
	}
	if p := kde.Percentile(50); math.Abs(p) > 0.1 {
		t.Fatalf("P50 = %v, want ≈0", p)
	}
}

func TestKDEConstantSample(t *testing.T) {
	xs := []float64{7, 7, 7, 7, 7}
	kde, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With the bandwidth floor the estimate is a spike at 7.
	if p := kde.Percentile(50); !almost(p, 7, 0.01) {
		t.Fatalf("P50 of constant sample %v", p)
	}
}

func TestKDEExplicitBandwidth(t *testing.T) {
	kde, _ := NewKDE([]float64{0, 10}, 0.5)
	if kde.Bandwidth() != 0.5 {
		t.Fatalf("bandwidth %v", kde.Bandwidth())
	}
	// Density at 5 should be tiny with a narrow bandwidth.
	if d := kde.Density(5); d > 1e-6 {
		t.Fatalf("mid-density %v", d)
	}
}

func TestSilvermanBandwidthScales(t *testing.T) {
	narrow := SilvermanBandwidth(gaussianSample(5, 200, 0, 0.5))
	wide := SilvermanBandwidth(gaussianSample(6, 200, 0, 5))
	if narrow <= 0 || wide <= 0 {
		t.Fatal("bandwidths must be positive")
	}
	if wide < 5*narrow {
		t.Fatalf("bandwidth should scale with spread: narrow=%v wide=%v", narrow, wide)
	}
}

// TestNewKDESorted checks that NewKDESorted over a sort.Float64s
// result gives NewKDE's bandwidth and percentile bit for bit, uses the
// slice in place, and rejects empty and unsorted samples.
func TestNewKDESorted(t *testing.T) {
	xs := append(mdShapedProfile(1), math.NaN(), 0, math.Copysign(0, -1))
	want, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	got, err := NewKDESorted(sorted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Bandwidth()) != math.Float64bits(want.Bandwidth()) ||
		math.Float64bits(got.Percentile(99)) != math.Float64bits(want.Percentile(99)) {
		t.Fatalf("NewKDESorted: bandwidth %v P99 %v, NewKDE %v and %v",
			got.Bandwidth(), got.Percentile(99), want.Bandwidth(), want.Percentile(99))
	}
	if &got.samples[0] != &sorted[0] {
		t.Fatal("NewKDESorted copied its samples")
	}
	if _, err := NewKDESorted(nil, 0); !errors.Is(err, ErrEmptyDistribution) {
		t.Fatalf("empty samples: error %v", err)
	}
	for _, bad := range [][]float64{{2, 1}, {1, math.NaN()}, {math.Inf(1), 0}} {
		if _, err := NewKDESorted(bad, 0); !errors.Is(err, ErrUnsorted) {
			t.Fatalf("%v: error %v, want ErrUnsorted", bad, err)
		}
	}
}

func TestKDESamplesCopied(t *testing.T) {
	xs := []float64{3, 1, 2}
	kde, _ := NewKDE(xs, 0)
	xs[0] = 99 // mutating the input must not affect the KDE
	got := kde.Samples()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("samples %v, want sorted copy of original", got)
	}
}

// bisectPercentile is the plain bisection KDE.Percentile has always
// computed: the same start, midpoint, stop and iteration cap. Percentile
// must return its result bit for bit.
func bisectPercentile(k *KDE, p float64) float64 {
	target := p / 100
	if target <= 0 {
		return k.samples[0] - 10*k.h
	}
	if target >= 1 {
		return k.samples[len(k.samples)-1] + 10*k.h
	}
	lo := k.samples[0] - 10*k.h
	hi := k.samples[len(k.samples)-1] + 10*k.h
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if k.CDF(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return (lo + hi) / 2
}

// percentileKinds are the sample shapes the percentile inversion is
// checked on, each drawn from one rng source.
var percentileKinds = []struct {
	name string
	draw func(src *rng.Source, i int) float64
}{
	{"gaussian", func(src *rng.Source, i int) float64 { return src.Normal(0, 1) }},
	{"far-bimodal", func(src *rng.Source, i int) float64 {
		return src.Normal(float64(i%2)*1000, 1)
	}},
	{"quantised", func(src *rng.Source, i int) float64 { return math.Round(src.Normal(-60, 3)) }},
	{"constant", func(src *rng.Source, i int) float64 { return 7 }},
	{"log-normal", func(src *rng.Source, i int) float64 { return math.Exp(src.Normal(0, 1.5)) }},
	{"offset-1e6", func(src *rng.Source, i int) float64 { return 1e6 + src.Normal(0, 1) }},
	{"three-cluster", func(src *rng.Source, i int) float64 {
		return [3]float64{0, 5, 40}[i%3] + src.Normal(0, [3]float64{0.2, 1, 0.05}[i%3])
	}},
	{"md-shaped", func(src *rng.Source, i int) float64 { return mdShapedValue(src) }},
}

// mdShapedValue draws one value shaped like an MD normal profile entry:
// a sum of per-stream standard deviations, mildly right-skewed around 46
// with a standard deviation near 1.8 and a rare movement spike in the
// tail.
func mdShapedValue(src *rng.Source) float64 {
	v := 38.0
	for j := 0; j < 40; j++ {
		z := src.NormFloat64()
		v += 0.2 * z * z
	}
	if src.Bool(0.01) {
		v += 2 + 10*src.Float64()
	}
	return v
}

// percentileSample draws n values of the given kind from seed.
func percentileSample(seed uint64, n, kind int) []float64 {
	src := rng.New(seed)
	draw := percentileKinds[kind].draw
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw(src, i)
	}
	return xs
}

// mdShapedProfile is a 600-sample md-shaped profile, the size of a full
// MD normal profile.
func mdShapedProfile(seed uint64) []float64 {
	return percentileSample(seed, 600, len(percentileKinds)-1)
}

var (
	percentileSizes      = []int{1, 2, 3, 7, 40, 150, 600, 1500}
	percentileBandwidths = []float64{0, 1e-3, 0.3, 5}
	percentilePs         = []float64{-5, 0, 0.001, 0.5, 1, 5, 25, 50, 75, 95, 99, 99.9, 99.999, 100 - 1e-9, 100, 150}
)

// TestKDEPercentileMatchesBisection pins Percentile to the plain
// bisection bit for bit over every sample kind, size, bandwidth (0 is
// Silverman's rule) and percentile in the grid, out-of-range p included.
func TestKDEPercentileMatchesBisection(t *testing.T) {
	for kind, pk := range percentileKinds {
		for _, n := range percentileSizes {
			for _, bw := range percentileBandwidths {
				kde, err := NewKDE(percentileSample(uint64(1000*kind+n), n, kind), bw)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range percentilePs {
					got, want := kde.Percentile(p), bisectPercentile(kde, p)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s n=%d bw=%v p=%v: Percentile %v (%#x), bisection %v (%#x)",
							pk.name, n, bw, p, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// mdShapedPins are Percentile's bits on md-shaped profiles.
var mdShapedPins = []struct {
	seed uint64
	p    float64
	want uint64
}{
	{1, 99, 0x4049b26c74d8f54a},
	{2, 99, 0x404986d1be7fedeb},
	{3, 99, 0x4049c4f3e331ca2f},
	{4, 95, 0x4048b0c6d673973e},
	{5, 99.9, 0x404e1e1241554fe0},
}

// TestKDEPercentileMDShapedPins hard-codes Percentile's bits on md-shaped
// 600-sample profiles with Silverman's bandwidth, so neither Percentile
// nor the bisectPercentile reference can drift unnoticed.
func TestKDEPercentileMDShapedPins(t *testing.T) {
	for _, tc := range mdShapedPins {
		kde, err := NewKDE(mdShapedProfile(tc.seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ref := kde.Percentile(tc.p), bisectPercentile(kde, tc.p)
		if math.Float64bits(got) != tc.want || math.Float64bits(ref) != tc.want {
			t.Errorf("seed %d p=%v: Percentile %#x, bisection %#x, want %#x",
				tc.seed, tc.p, math.Float64bits(got), math.Float64bits(ref), tc.want)
		}
	}
}

// FuzzKDEPercentile checks Percentile against the plain bisection bit
// for bit on generated samples: any seed, size (1 to 3000), sample kind,
// bandwidth and p, non-finite ones included, and that PercentileBracket
// started anywhere, when it certifies, holds the result. It is seeded
// with the pin table, started cold, near the pinned percentile and far
// off it, and with a slice of the bisection grid.
func FuzzKDEPercentile(f *testing.F) {
	for _, tc := range mdShapedPins {
		want := math.Float64frombits(tc.want)
		for _, start := range []float64{math.NaN(), want, want - 0.3, want + 2, 0, math.Inf(1)} {
			f.Add(tc.seed, uint16(599), uint8(len(percentileKinds)-1), 0.0, tc.p, start)
		}
	}
	for kind := range percentileKinds {
		for i, n := range percentileSizes {
			bw := percentileBandwidths[(kind+i)%len(percentileBandwidths)]
			p := percentilePs[(3*kind+i)%len(percentilePs)]
			f.Add(uint64(1000*kind+n), uint16(n-1), uint8(kind), bw, p, math.NaN())
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, kind uint8, bw, p, start float64) {
		size := int(n)%3000 + 1
		k := int(kind) % len(percentileKinds)
		kde, err := NewKDE(percentileSample(seed, size, k), bw)
		if err != nil {
			t.Fatal(err)
		}
		got, want := kde.Percentile(p), bisectPercentile(kde, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s n=%d h=%v p=%v: Percentile %v (%#x), bisection %v (%#x)",
				percentileKinds[k].name, size, kde.Bandwidth(), p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if lo, hi, ok := kde.PercentileBracket(p, start); ok && !(lo < want && want < hi) {
			t.Fatalf("%s n=%d h=%v p=%v start %v: bracket [%v, %v] misses Percentile %v",
				percentileKinds[k].name, size, kde.Bandwidth(), p, start, lo, hi, want)
		}
	})
}

// TestKDEBracketWarmStart replays md's refits on a stream of md-shaped
// values: a 600-value profile that drops its 80 oldest values and takes
// 80 new ones per refit, each bracket started where md starts it, at the
// last bracket's midpoint (or the last percentile). Every warm-started
// bracket must certify where the cold one does and hold Percentile, and
// so must brackets started a few bandwidths off either side.
func TestKDEBracketWarmStart(t *testing.T) {
	src := rng.New(21)
	stream := make([]float64, 600+80*60)
	for i := range stream {
		stream[i] = mdShapedValue(src)
	}
	sorted := make([]float64, 600)
	start := math.NaN()
	cold, warm := 0, 0
	for at := 0; at+600 <= len(stream); at += 80 {
		copy(sorted, stream[at:at+600])
		slices.Sort(sorted)
		kde, err := NewKDESorted(sorted, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := kde.Percentile(99)
		_, _, coldOK := kde.PercentileBracket(99, math.NaN())
		lo, hi, ok := kde.PercentileBracket(99, start)
		if coldOK {
			cold++
		}
		if ok {
			warm++
			if !(lo < want && want < hi) {
				t.Fatalf("refit at %d, started at %v: bracket [%v, %v] misses Percentile %v", at, start, lo, hi, want)
			}
		} else if coldOK {
			t.Errorf("refit at %d: started at %v the bracket fails to certify, cold it certifies", at, start)
		}
		for _, off := range []float64{-3, -1, 1, 3} {
			x := want + off*kde.Bandwidth()
			if lo, hi, ok := kde.PercentileBracket(99, x); ok && !(lo < want && want < hi) {
				t.Fatalf("refit at %d, started at %v: bracket [%v, %v] misses Percentile %v", at, x, lo, hi, want)
			} else if !ok && coldOK {
				t.Errorf("refit at %d: started %v bandwidths off the bracket fails to certify, cold it certifies", at, off)
			}
		}
		if ok {
			start = (lo + hi) / 2
		} else {
			start = want
		}
	}
	if warm < cold || cold < 50 {
		t.Fatalf("warm-started brackets certified %d of the refits, cold ones %d", warm, cold)
	}
}

// TestKDEBracketContainsPercentile checks, over the bisection grid, that
// whenever PercentileBracket certifies, its bracket holds Percentile
// strictly inside, and that the bisection's final interval is narrower
// than bisectWidth. It also requires the bracket to certify on most of
// the grid and on every md-shaped pin, so the check is not vacuous.
func TestKDEBracketContainsPercentile(t *testing.T) {
	cases, certified := 0, 0
	for kind, pk := range percentileKinds {
		for _, n := range percentileSizes {
			for _, bw := range percentileBandwidths {
				kde, err := NewKDE(percentileSample(uint64(1000*kind+n), n, kind), bw)
				if err != nil {
					t.Fatal(err)
				}
				lo0 := kde.samples[0] - 10*kde.h
				hi0 := kde.samples[n-1] + 10*kde.h
				for _, p := range percentilePs {
					want := kde.Percentile(p)
					if lo, hi := bisectInterval(kde, p, lo0, hi0); !(hi-lo < bisectWidth(lo0, hi0)/1.5) {
						t.Errorf("%s n=%d bw=%v p=%v: bisection ends %v wide, bisectWidth %v",
							pk.name, n, bw, p, hi-lo, bisectWidth(lo0, hi0))
					}
					cases++
					lo, hi, ok := kde.PercentileBracket(p, math.NaN())
					if !ok {
						continue
					}
					certified++
					if !(lo < want && want < hi) {
						t.Errorf("%s n=%d bw=%v p=%v: bracket [%v, %v] misses Percentile %v",
							pk.name, n, bw, p, lo, hi, want)
					}
					if w := (hi - lo) / kde.h; w > 0.03 && hi-lo > 2*bisectWidth(lo0, hi0) {
						t.Errorf("%s n=%d bw=%v p=%v: bracket %v bandwidths wide", pk.name, n, bw, p, w)
					}
				}
			}
		}
	}
	if certified < cases/2 {
		t.Errorf("bracket certified %d of %d cases", certified, cases)
	}
	for _, tc := range mdShapedPins {
		kde, err := NewKDE(mdShapedProfile(tc.seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Float64frombits(tc.want)
		if lo, hi, ok := kde.PercentileBracket(tc.p, math.NaN()); !ok || !(lo < want && want < hi) {
			t.Errorf("seed %d p=%v: bracket [%v, %v] ok %v, Percentile %v", tc.seed, tc.p, lo, hi, ok, want)
		}
	}
	t.Logf("bracket certified %d of %d grid cases", certified, cases)
}

// bisectInterval is bisectPercentile's loop over [lo, hi] for p in
// (0, 100), returning the final interval instead of its midpoint.
func bisectInterval(k *KDE, p, lo, hi float64) (float64, float64) {
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if k.CDF(mid) < p/100 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10 {
			break
		}
	}
	return lo, hi
}

// TestPhiTableErr measures phiTable against stdNormalCDF on a 1e-4 grid
// over [−9, 9] and checks the measured error, and the analytic
// cubic-Hermite bound from max|φ‴|, against phiTableErr, the per-term
// allowance PercentileBracket's certification uses.
func TestPhiTableErr(t *testing.T) {
	var worst float64
	for i := -90000; i <= 90000; i++ {
		z := float64(i) * 1e-4
		c, _ := phiTable(z)
		worst = math.Max(worst, math.Abs(c-stdNormalCDF(z)))
	}
	if !(worst <= phiTableErr) || worst < phiTableErr/2 {
		t.Fatalf("phiTable error %.4g, allowance %.4g", worst, phiTableErr)
	}
	// φ‴(z) = (3z − z³)·φ(z).
	var d3 float64
	for z := 0.0; z < 9; z += 1e-5 {
		d3 = math.Max(d3, math.Abs((3*z-z*z*z)*invSqrt2Pi*math.Exp(-z*z/2)))
	}
	if bound := math.Pow(phiStep, 4) / 384 * d3; bound+1e-14 > phiTableErr {
		t.Fatalf("Hermite bound %.5g plus rounding exceeds phiTableErr %.4g", bound, phiTableErr)
	}
	t.Logf("phiTable error %.4g, max|φ‴| %.5f", worst, d3)
}

// BenchmarkKDEPercentile inverts a fixed md-shaped 600-sample profile at
// p = 99, the MD threshold of the default α = 1, and reports the CDF
// evaluations each inversion makes.
func BenchmarkKDEPercentile(b *testing.B) {
	kde, err := NewKDE(mdShapedProfile(1), 0)
	if err != nil {
		b.Fatal(err)
	}
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, e := kde.percentile(99)
		evals += e
	}
	b.ReportMetric(float64(evals)/float64(b.N), "cdf-evals/op")
}

// plateauProfile is mdShapedProfile(seed) with exactly 1 % of its
// values moved far above the rest, so the 99th percentile lies in the
// flat far tail of the lower values' kernels, where no bracket
// certifies.
func plateauProfile(seed uint64) []float64 {
	xs := mdShapedProfile(seed)
	for i := 0; i < len(xs)/100; i++ {
		xs[i] = 100
	}
	return xs
}

// BenchmarkKDEBracket certifies the bracket around the same percentile
// of the same profile as BenchmarkKDEPercentile (md-shaped), and fails
// to certify it on a plateau profile, which should cost a few Newton
// steps, not all bracketSteps.
func BenchmarkKDEBracket(b *testing.B) {
	for _, tc := range []struct {
		name    string
		samples []float64
		ok      bool
	}{
		{"md-shaped", mdShapedProfile(1), true},
		{"plateau", plateauProfile(1), false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			kde, err := NewKDE(tc.samples, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := kde.PercentileBracket(99, math.NaN()); ok != tc.ok {
					b.Fatalf("bracket certified %v, want %v", ok, tc.ok)
				}
			}
		})
	}
}
