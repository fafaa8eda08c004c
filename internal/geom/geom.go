// Package geom provides the small amount of 2-D computational geometry the
// FADEWICH simulator needs: point/segment primitives, point-to-segment
// distance (used by the human-body shadowing model to decide whether a body
// obstructs a sensor link), ellipse containment (the RTI-style sensitivity
// region around a link), and polyline paths with arc-length parameterisation
// (used to walk user agents from their workstation to the office door).
package geom

import (
	"fmt"
	"math"
)

// Point is a position on the office floor plan, in metres.
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q interpreted as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p interpreted as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String renders the point with centimetre precision for logs and tables.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is the straight line between two sensor positions (a radio link)
// or one leg of a walking path.
type Segment struct {
	A, B Point
}

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the point halfway along the segment.
func (s Segment) Midpoint() Point { return s.A.Lerp(s.B, 0.5) }

// DistToPoint returns the shortest distance from p to any point of the
// segment, along with the parameter t in [0,1] of the closest point
// (t=0 at A, t=1 at B).
func (s Segment) DistToPoint(p Point) (dist, t float64) {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return s.A.Dist(p), 0
	}
	t = p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	closest := s.A.Lerp(s.B, t)
	return closest.Dist(p), t
}

// ExcessPathLength returns how much longer the path A→p→B is than the
// direct path A→B. This is the quantity that parameterises Fresnel-zone
// style link-obstruction models: a scatterer with small excess path length
// sits inside the sensitivity ellipse of the link.
func (s Segment) ExcessPathLength(p Point) float64 {
	return s.A.Dist(p) + p.Dist(s.B) - s.Length()
}

// Path is a polyline with precomputed cumulative arc lengths, supporting
// constant-speed traversal. Construct with NewPath.
type Path struct {
	points []Point
	cum    []float64 // cum[i] = arc length from points[0] to points[i]
}

// NewPath builds a path through the given waypoints. It panics if fewer
// than two waypoints are supplied, since a degenerate path cannot be
// walked; callers construct paths from static layout data, so this is a
// programming error, not an input error.
func NewPath(points ...Point) *Path {
	if len(points) < 2 {
		panic("geom: NewPath requires at least two waypoints")
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	cum := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		cum[i] = cum[i-1] + pts[i-1].Dist(pts[i])
	}
	return &Path{points: pts, cum: cum}
}

// Length returns the total arc length of the path.
func (p *Path) Length() float64 { return p.cum[len(p.cum)-1] }

// At returns the point at arc length s from the start. s is clamped to
// [0, Length].
func (p *Path) At(s float64) Point {
	if s <= 0 {
		return p.points[0]
	}
	last := len(p.cum) - 1
	if s >= p.cum[last] {
		return p.points[last]
	}
	// Binary search for the leg containing arc length s.
	lo, hi := 0, last
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if p.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	legLen := p.cum[hi] - p.cum[lo]
	if legLen == 0 {
		return p.points[lo]
	}
	t := (s - p.cum[lo]) / legLen
	return p.points[lo].Lerp(p.points[hi], t)
}

// Reverse returns a new path traversing the same waypoints backwards.
func (p *Path) Reverse() *Path {
	rev := make([]Point, len(p.points))
	for i, pt := range p.points {
		rev[len(p.points)-1-i] = pt
	}
	return NewPath(rev...)
}

// Waypoints returns a copy of the path's waypoints.
func (p *Path) Waypoints() []Point {
	out := make([]Point, len(p.points))
	copy(out, p.points)
	return out
}

// Rect is an axis-aligned rectangle, used for the office outline.
type Rect struct {
	Min, Max Point
}

// Contains reports whether p lies within the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the rectangle's extent along X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's extent along Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns the point inside the rectangle closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}
