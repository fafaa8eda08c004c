package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fadewich/internal/rng"
)

// mod wraps quick-generated floats into a bounded range.
func mod(x, m float64) float64 {
	if math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, m)
}

// naiveStdSum is the sum over streams of the population standard
// deviation of each stream's last w samples, computed directly; a
// stream with fewer than two samples adds 0.
func naiveStdSum(history [][]float64, w int) float64 {
	var sum float64
	for _, h := range history {
		if len(h) < 2 {
			continue
		}
		sum += StdDev(h[max(0, len(h)-w):])
	}
	return sum
}

func TestRollingStdMatchesNaive(t *testing.T) {
	// Property: after any sequence of pushes, the rolling value equals
	// the sum over streams of the population std of the last w samples.
	src := rng.New(55)
	for _, streams := range []int{1, 3} {
		for _, w := range []int{2, 5, 12, 30} {
			r := NewRollingStd(w, streams)
			history := make([][]float64, streams)
			row := make([]float64, streams)
			for i := 0; i < 500; i++ {
				for k := range row {
					row[k] = src.Normal(-60, 3)
					history[k] = append(history[k], row[k])
				}
				if got, want := r.Push(row), naiveStdSum(history, w); !almost(got, want, 1e-6) {
					t.Fatalf("%d streams, w=%d step=%d: rolling %v, naive %v", streams, w, i, got, want)
				}
			}
		}
	}
}

func TestRollingStdWarmup(t *testing.T) {
	r := NewRollingStd(10, 2)
	if r.count != 0 || r.Streams() != 2 {
		t.Fatalf("fresh window: %d rows filled, %d streams", r.count, r.Streams())
	}
	if st := r.Push([]float64{5, -60}); st != 0 {
		t.Fatalf("single observation: std %v, want 0", st)
	}
	if st := r.Push([]float64{7, -60}); st != 1 {
		t.Fatalf("two observations: std %v, want 1", st)
	}
	for i := 0; i < 8; i++ {
		if r.count == r.rows {
			t.Fatalf("window full after %d rows", r.count)
		}
		r.Push([]float64{float64(i), -60})
	}
	if r.count != r.rows || r.rows != 10 {
		t.Fatalf("window should be full: %d of %d rows", r.count, r.rows)
	}
	// The next row evicts the first: {7, 0…7, 100} is what stays.
	want := StdDev([]float64{7, 0, 1, 2, 3, 4, 5, 6, 7, 100})
	if st := r.Push([]float64{100, -60}); !almost(st, want, 1e-9) {
		t.Fatalf("after eviction: std %v, want %v", st, want)
	}
}

func TestRollingStdPanicsOnBadWindow(t *testing.T) {
	for _, c := range []struct{ w, streams int }{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRollingStd(%d, %d) did not panic", c.w, c.streams)
				}
			}()
			NewRollingStd(c.w, c.streams)
		}()
	}
}

func TestRollingStdLongRunStability(t *testing.T) {
	// Drift guard: after far more pushes than rebuildEvery, the running
	// sums must still agree with the naive computation.
	src := rng.New(60)
	r := NewRollingStd(16, 1)
	recent := make([]float64, 0, 16)
	var got float64
	for i := 0; i < rebuildEvery*2+100; i++ {
		// Large offset amplifies cancellation error if drift were present.
		x := 1e6 + src.NormFloat64()
		got = r.Push([]float64{x})
		recent = append(recent, x)
		if len(recent) > 16 {
			recent = recent[1:]
		}
	}
	want := StdDev(recent)
	// The large offset makes some cancellation error unavoidable even for
	// the naive formula; without the periodic rebuild the error here
	// would be orders of magnitude larger.
	if !almost(got, want, 5e-3) {
		t.Fatalf("after long run: rolling %v, naive %v", got, want)
	}
}

func TestRollingStdNonNegativeProperty(t *testing.T) {
	r := NewRollingStd(8, 1)
	if err := quick.Check(func(x float64) bool {
		if x != x { // NaN guard
			x = 0
		}
		// Keep inputs in a physically meaningful (dBm-like) range;
		// squaring near-max float64 overflows for any formula.
		return r.Push([]float64{mod(x, 1e3)}) >= 0
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// perStreamStd is one stream's rolling standard deviation in its own
// window: running sums updated in place, rebuilt exactly from the
// newest sample back every rebuildEvery updates.
type perStreamStd struct {
	buf             []float64
	head, count     int
	sum, sumSq      float64
	sinceRebuild    int
	rebuilds, wraps int
}

func (r *perStreamStd) push(x float64) {
	if r.count == len(r.buf) {
		old := r.buf[r.head]
		r.sum -= old
		r.sumSq -= old * old
	} else {
		r.count++
	}
	r.buf[r.head] = x
	r.sum += x
	r.sumSq += x * x
	if r.head = (r.head + 1) % len(r.buf); r.head == 0 {
		r.wraps++
	}
	if r.sinceRebuild++; r.sinceRebuild >= rebuildEvery {
		r.sinceRebuild = 0
		r.rebuilds++
		r.sum, r.sumSq = 0, 0
		for i := 0; i < r.count; i++ {
			v := r.buf[(r.head-1-i+2*len(r.buf))%len(r.buf)]
			r.sum += v
			r.sumSq += v * v
		}
	}
}

func (r *perStreamStd) std() float64 {
	if r.count < 2 {
		return 0
	}
	n := float64(r.count)
	mean := r.sum / n
	v := r.sumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// TestRollingStdMatchesPerStream holds the one ring of rolling windows
// to a separate window per stream, bit for bit: every push must return
// the per-stream deviations summed in stream order, through the first
// fill, many wraps and several exact rebuilds. The samples mix integer
// dBm with fractional values and rare large outliers, so the running
// sums round and cancel.
func TestRollingStdMatchesPerStream(t *testing.T) {
	for _, c := range []struct{ streams, w int }{{1, 2}, {2, 1}, {3, 12}, {12, 12}, {5, 39}} {
		r := NewRollingStd(c.w, c.streams)
		ref := make([]perStreamStd, c.streams)
		for k := range ref {
			ref[k].buf = make([]float64, c.w)
		}
		src := rng.New(uint64(14 + c.streams))
		row := make([]float64, c.streams)
		const pushes = 3*rebuildEvery + 1000
		for i := 0; i < pushes; i++ {
			for k := range row {
				switch x := src.Normal(-60, 3); {
				case i%5 == 0:
					row[k] = x
				case src.Intn(500) == 0:
					row[k] = 1e6 * x
				default:
					row[k] = math.Round(x)
				}
				ref[k].push(row[k])
			}
			st := r.Push(row)
			var want float64
			for k := range ref {
				want += ref[k].std()
			}
			if math.Float64bits(st) != math.Float64bits(want) {
				t.Fatalf("%d streams, w=%d, push %d: sum %v, per-stream windows sum to %v",
					c.streams, c.w, i, st, want)
			}
		}
		if ref[0].rebuilds < 3 || ref[0].wraps < 10 {
			t.Fatalf("w=%d: %d rebuilds and %d wraps, want at least 3 and 10", c.w, ref[0].rebuilds, ref[0].wraps)
		}
	}
}
