package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical values out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child values must not simply replay the parent stream.
	p, c := New(7), child
	equal := 0
	for i := 0; i < 64; i++ {
		if p.Uint64() == c.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("child stream overlaps parent stream (%d/64 equal)", equal)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, b := New(9), New(9)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(5)
	for i := 0; i < 10000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(13)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := src.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	src := New(17)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[src.Intn(buckets)]++
	}
	for b, c := range counts {
		expect := float64(n) / buckets
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, expect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	src := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("gaussian mean %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("gaussian variance %v, want ≈1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	src := New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += src.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean %v", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	src := New(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := src.Exponential(3)
		if v < 0 {
			t.Fatalf("negative exponential %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("Exponential(3) mean %v", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	src := New(31)
	for _, mean := range []float64{0.5, 4, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(src.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	if v := New(1).Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := New(1).Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", v)
	}
}

func TestBoolProbability(t *testing.T) {
	src := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bool(0.78) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.78) > 0.01 {
		t.Fatalf("Bool(0.78) frequency %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(41)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := src.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterRange(t *testing.T) {
	src := New(43)
	for i := 0; i < 10000; i++ {
		v := src.Jitter(2)
		if v < -1 || v > 1 {
			t.Fatalf("Jitter(2) out of range: %v", v)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	src := New(47)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: sum %d", sum)
	}
}
