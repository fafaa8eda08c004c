package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fadewich/internal/rng"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance %v", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Fatalf("stddev %v", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty slice statistics should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be ±Inf")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if v := SampleVariance(xs); !almost(v, want, 1e-12) {
		t.Fatalf("sample variance %v, want %v", v, want)
	}
	if SampleVariance([]float64{3}) != 0 {
		t.Fatal("single-element sample variance should be 0")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	if got := Percentile([]float64{9, 1, 5}, 50); got != 5 {
		t.Fatalf("median of unsorted = %v", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	src := rng.New(3)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = src.NormFloat64()
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestAutocorrelation(t *testing.T) {
	// A constant has zero (defined) autocorrelation.
	if r := Autocorrelation([]float64{5, 5, 5, 5}, 1); r != 0 {
		t.Fatalf("constant ac %v", r)
	}
	// Perfectly alternating series has lag-1 autocorrelation −1.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if r := Autocorrelation(alt, 1); !almost(r, -1, 1e-9) {
		t.Fatalf("alternating lag-1 ac %v, want -1", r)
	}
	// Lag 0 is exactly 1 for any non-constant series.
	if r := Autocorrelation([]float64{1, 2, 3, 4}, 0); !almost(r, 1, 1e-9) {
		t.Fatalf("lag-0 ac %v, want 1", r)
	}
	// Out-of-range lags are 0.
	if Autocorrelation([]float64{1, 2}, 5) != 0 || Autocorrelation([]float64{1, 2}, -1) != 0 {
		t.Fatal("out-of-range lag should be 0")
	}
}

func TestAutocorrelationSmoothVsNoise(t *testing.T) {
	src := rng.New(8)
	// A slow ramp is highly lag-1 correlated; white noise is not.
	ramp := make([]float64, 100)
	noise := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i) + 0.01*src.NormFloat64()
		noise[i] = src.NormFloat64()
	}
	if r := Autocorrelation(ramp, 1); r < 0.9 {
		t.Fatalf("ramp ac %v, want > 0.9", r)
	}
	if r := Autocorrelation(noise, 1); math.Abs(r) > 0.3 {
		t.Fatalf("noise ac %v, want ≈ 0", r)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := PearsonCorrelation(x, y); !almost(r, 1, 1e-12) {
		t.Fatalf("perfect positive corr %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := PearsonCorrelation(x, neg); !almost(r, -1, 1e-12) {
		t.Fatalf("perfect negative corr %v", r)
	}
	if r := PearsonCorrelation(x, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("constant series corr %v, want 0", r)
	}
	if r := PearsonCorrelation(x, []float64{1, 2}); r != 0 {
		t.Fatalf("length mismatch corr %v, want 0", r)
	}
}

func TestCorrelationMatrixProperties(t *testing.T) {
	src := rng.New(21)
	cols := make([][]float64, 4)
	for i := range cols {
		cols[i] = make([]float64, 50)
		for j := range cols[i] {
			cols[i][j] = src.NormFloat64()
		}
	}
	m := CorrelationMatrix(cols)
	for i := range m {
		if m[i][i] != 1 {
			t.Fatalf("diagonal [%d] = %v", i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatal("matrix not symmetric")
			}
			if m[i][j] < -1-1e-12 || m[i][j] > 1+1e-12 {
				t.Fatalf("correlation out of range: %v", m[i][j])
			}
		}
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		return Variance(xs) >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}
