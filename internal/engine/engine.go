// Package engine is the concurrent fleet layer of the repository: a
// deterministic worker pool plus a Fleet that shards many independent
// core.System instances (one per office/tenant) across the pool. Every
// other layer — the simulator's parallel day generation, the evaluation
// harness's experiment fan-outs, and multi-office serving — runs on top
// of the same two primitives.
//
// Determinism is the design constraint that shapes the API. Work is
// always index-addressed: a job writes its result into a caller-owned
// slot chosen by the job index, never into a shared accumulator, so the
// assembled output is byte-identical regardless of worker count or
// goroutine scheduling. A caller that runs with Workers=1 and Workers=64
// must not be able to tell the difference from the results.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-width worker pool executing index-addressed jobs. The
// zero value is not usable; construct one with NewPool. A Pool holds no
// goroutines between calls — workers are spawned per Map call — so it is
// cheap to create and safe to share.
//
// The width is a shared budget, not a per-call multiplier: nested Map
// calls on the same Pool (a sweep worker fanning out again) draw extra
// goroutines from one token pot, so total concurrency stays at the
// configured width instead of width².
type Pool struct {
	workers int
	// tokens gates the extra goroutines a Map call may spawn beyond the
	// calling goroutine itself (capacity workers−1). A Map that finds the
	// pot empty — typically because it is nested inside another Map on
	// the same pool — simply runs its jobs on the caller's goroutine.
	tokens chan struct{}
}

// NewPool returns a pool of the given width. Non-positive widths select
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Map runs fn(i) for every i in [0, n) across the pool's workers and
// blocks until all dispatched jobs finish. Jobs are dispatched in index
// order; after the first failure no further jobs start, already-running
// jobs complete, and the error of the lowest failing index is returned —
// the same error a sequential loop would have stopped on, independent of
// scheduling.
//
// fn must confine its effects to data owned by index i (typically a
// pre-allocated result slot); it must not append to shared slices or
// write shared maps without its own synchronisation.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next atomic.Int64
		// errIdx is the lowest failing index seen so far (or n). Jobs with
		// a higher index are skipped, but any job below it always runs, so
		// the error finally returned is the one the sequential loop would
		// have stopped on — independent of goroutine scheduling.
		errIdx atomic.Int64
		mu     sync.Mutex
		err    error
		wg     sync.WaitGroup
	)
	errIdx.Store(int64(n))
	worker := func() {
		for {
			i := int64(next.Add(1) - 1)
			if i >= int64(n) || i > errIdx.Load() {
				return
			}
			if e := fn(int(i)); e != nil {
				mu.Lock()
				if i < errIdx.Load() {
					errIdx.Store(i)
					err = e
				}
				mu.Unlock()
			}
		}
	}
	// Spawn helpers only while budget tokens are free; the calling
	// goroutine always participates, so a Map with an empty pot (nested
	// inside another Map) degrades to a plain sequential loop.
	helpers := p.workers
	if helpers > n {
		helpers = n
	}
spawn:
	for h := 0; h < helpers-1; h++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				worker()
			}()
		default:
			break spawn // budget exhausted
		}
	}
	worker()
	wg.Wait()
	return err
}

// Gather is Map plus result collection: it runs fn(i) for every i in
// [0, n) and returns the results in index order.
func Gather[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Map(n, func(i int) error {
		v, e := fn(i)
		if e != nil {
			return fmt.Errorf("job %d: %w", i, e)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
