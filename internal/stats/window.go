package stats

import "math"

// RollingStd maintains the population standard deviation of the last w
// samples of each of several streams, in O(1) per sample, using running
// sums with periodic exact recomputation to bound floating-point drift.
// All streams' windows share one ring with one row of samples per
// update. The MD module keeps one per detector: its statistic s_t is
// the sum over streams of the windows' standard deviations (Section
// IV-C2), which Push returns.
type RollingStd struct {
	// ring holds rows rows of len(acc) samples, head the next to
	// write, count of them filled. acc holds each stream's running sums
	// over its window.
	ring  []float64
	acc   []stdSums
	rows  int
	head  int
	count int
	// sinceRebuild triggers an exact recomputation of the running sums
	// every rebuildEvery updates so that cancellation error cannot
	// accumulate over multi-day traces.
	sinceRebuild int
}

// stdSums is one stream's running sum and sum of squares over its
// rolling window.
type stdSums struct{ sum, sumSq float64 }

// rebuildEvery bounds floating-point drift; the exact rebuild is one
// pass over the ring and amortises to a negligible constant.
const rebuildEvery = 1 << 14

// NewRollingStd returns rolling standard deviations over windows of w
// rows of streams samples each. It panics for w < 1 or streams < 1,
// which are configuration errors.
func NewRollingStd(w, streams int) *RollingStd {
	if w < 1 || streams < 1 {
		panic("stats: RollingStd window and stream count must be >= 1")
	}
	return &RollingStd{
		ring: make([]float64, w*streams),
		acc:  make([]stdSums, streams),
		rows: w,
	}
}

// Streams returns the number of samples Push takes.
func (r *RollingStd) Streams() int { return len(r.acc) }

// Push adds one row of samples, one per stream, evicting the oldest row
// once the windows are full, and returns the sum over streams, in
// stream order, of each window's population standard deviation, or 0
// while the windows hold fewer than two rows. Push reads
// row[:Streams()].
func (r *RollingStd) Push(row []float64) float64 {
	n := len(r.acc)
	slot := r.ring[r.head*n : r.head*n+n]
	acc := r.acc[:len(slot)]
	full := r.count == r.rows
	if !full {
		r.count++
	}
	count := float64(r.count)
	var st float64
	for i, x := range row[:len(slot)] {
		a := &acc[i]
		sum, sumSq := a.sum, a.sumSq
		if full {
			old := slot[i]
			sum -= old
			sumSq -= old * old
		}
		slot[i] = x
		sum += x
		sumSq += x * x
		a.sum, a.sumSq = sum, sumSq
		st += a.std(count)
	}
	if r.head++; r.head == r.rows {
		r.head = 0
	}
	if r.sinceRebuild++; r.sinceRebuild >= rebuildEvery {
		st = r.rebuild()
	}
	if r.count < 2 {
		return 0
	}
	return st
}

// rebuild recomputes the running sums exactly, each stream's from its
// newest sample to its oldest, and returns their standard deviations'
// sum.
func (r *RollingStd) rebuild() float64 {
	r.sinceRebuild = 0
	clear(r.acc)
	n := len(r.acc)
	row := r.head
	for i := 0; i < r.count; i++ {
		if row == 0 {
			row = r.rows
		}
		row--
		for k, v := range r.ring[row*n : row*n+n] {
			a := &r.acc[k]
			a.sum += v
			a.sumSq += v * v
		}
	}
	var st float64
	for i := range r.acc {
		st += r.acc[i].std(float64(r.count))
	}
	return st
}

// std returns the population standard deviation of a window of n
// samples.
func (a *stdSums) std(n float64) float64 {
	mean := a.sum / n
	v := a.sumSq/n - mean*mean
	if v < 0 {
		v = 0 // guard against tiny negative values from rounding
	}
	return math.Sqrt(v)
}
