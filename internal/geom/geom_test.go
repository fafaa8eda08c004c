package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDistSymmetricNonNegative(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		d1, d2 := a.Dist(b), b.Dist(a)
		return d1 >= 0 && almostEqual(d1, d2, 1e-12)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// clamp keeps quick-generated values in a sane range so float overflow
// does not produce spurious failures.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}

func TestLerpEndpoints(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 4}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 2}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{A: Point{0, 0}, B: Point{10, 0}}
	cases := []struct {
		p     Point
		d, tt float64
	}{
		{Point{5, 3}, 3, 0.5},    // perpendicular above the middle
		{Point{-4, 0}, 4, 0},     // beyond A
		{Point{14, 3}, 5, 1},     // beyond B, diagonal
		{Point{0, 0}, 0, 0},      // endpoint A
		{Point{10, 0}, 0, 1},     // endpoint B
		{Point{2.5, 0}, 0, 0.25}, // on the segment
	}
	for _, c := range cases {
		d, tt := s.DistToPoint(c.p)
		if !almostEqual(d, c.d, 1e-9) || !almostEqual(tt, c.tt, 1e-9) {
			t.Fatalf("DistToPoint(%v) = (%v,%v), want (%v,%v)", c.p, d, tt, c.d, c.tt)
		}
	}
}

func TestDegenerateSegment(t *testing.T) {
	s := Segment{A: Point{2, 2}, B: Point{2, 2}}
	d, tt := s.DistToPoint(Point{5, 6})
	if !almostEqual(d, 5, 1e-9) || tt != 0 {
		t.Fatalf("degenerate segment: d=%v t=%v", d, tt)
	}
}

func TestExcessPathLength(t *testing.T) {
	s := Segment{A: Point{0, 0}, B: Point{6, 0}}
	// On the segment: zero excess.
	if e := s.ExcessPathLength(Point{3, 0}); !almostEqual(e, 0, 1e-12) {
		t.Fatalf("on-segment excess %v", e)
	}
	// 3-4-5 triangles on both halves: 5+5-6 = 4.
	if e := s.ExcessPathLength(Point{3, 4}); !almostEqual(e, 4, 1e-9) {
		t.Fatalf("excess %v, want 4", e)
	}
}

func TestPathArcLength(t *testing.T) {
	p := NewPath(Point{0, 0}, Point{3, 0}, Point{3, 4})
	if !almostEqual(p.Length(), 7, 1e-12) {
		t.Fatalf("length %v, want 7", p.Length())
	}
	if got := p.At(0); got != (Point{0, 0}) {
		t.Fatalf("At(0) = %v", got)
	}
	if got := p.At(3); got != (Point{3, 0}) {
		t.Fatalf("At(3) = %v", got)
	}
	if got := p.At(5); got != (Point{3, 2}) {
		t.Fatalf("At(5) = %v", got)
	}
	// Clamping beyond both ends.
	if got := p.At(-1); got != (Point{0, 0}) {
		t.Fatalf("At(-1) = %v", got)
	}
	if got := p.At(100); got != (Point{3, 4}) {
		t.Fatalf("At(100) = %v", got)
	}
}

func TestPathAtIsContinuous(t *testing.T) {
	p := NewPath(Point{0, 0}, Point{2, 1}, Point{5, 5}, Point{6, 0})
	prev := p.At(0)
	for s := 0.05; s <= p.Length(); s += 0.05 {
		cur := p.At(s)
		if prev.Dist(cur) > 0.051 {
			t.Fatalf("path jumped %v at s=%v", prev.Dist(cur), s)
		}
		prev = cur
	}
}

func TestPathReverse(t *testing.T) {
	p := NewPath(Point{0, 0}, Point{3, 0}, Point{3, 4})
	r := p.Reverse()
	if !almostEqual(r.Length(), p.Length(), 1e-12) {
		t.Fatal("reverse changed length")
	}
	if got := r.At(0); got != (Point{3, 4}) {
		t.Fatalf("reverse start %v", got)
	}
	if got := r.At(r.Length()); got != (Point{0, 0}) {
		t.Fatalf("reverse end %v", got)
	}
	// Reversal is an involution on the waypoints.
	w1, w2 := p.Waypoints(), r.Reverse().Waypoints()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("double reverse is not identity")
		}
	}
}

func TestNewPathPanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPath with one point did not panic")
		}
	}()
	NewPath(Point{0, 0})
}

func TestRect(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{6, 3}}
	if !r.Contains(Point{3, 1.5}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{6, 3}) {
		t.Fatal("Contains failed on interior/boundary")
	}
	if r.Contains(Point{6.01, 1}) || r.Contains(Point{-0.01, 1}) {
		t.Fatal("Contains accepted exterior point")
	}
	if r.Width() != 6 || r.Height() != 3 {
		t.Fatalf("dims %v x %v", r.Width(), r.Height())
	}
	if got := r.Clamp(Point{10, -5}); got != (Point{6, 0}) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestClampedPointAlwaysInside(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{6, 3}}
	if err := quick.Check(func(x, y float64) bool {
		return r.Contains(r.Clamp(Point{clamp(x), clamp(y)}))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathAtDistanceTraveledMatchesRequested(t *testing.T) {
	// Property: walking s along the path, the cumulative polyline distance
	// from the start equals s (within numeric tolerance).
	p := NewPath(Point{0, 0}, Point{1, 1}, Point{4, 1}, Point{4, 4})
	for s := 0.0; s < p.Length(); s += 0.37 {
		// Measure distance from start by fine sampling.
		var travelled float64
		prev := p.At(0)
		for x := 0.001; x <= s; x += 0.001 {
			cur := p.At(x)
			travelled += prev.Dist(cur)
			prev = cur
		}
		if !almostEqual(travelled, s, 0.01) {
			t.Fatalf("travelled %v for arc %v", travelled, s)
		}
	}
}
