package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestNewPoolDefaultsToCPUs(t *testing.T) {
	if w := NewPool(0).workers; w < 1 {
		t.Fatalf("default pool width %d < 1", w)
	}
	if w := NewPool(-3).workers; w < 1 {
		t.Fatalf("negative-width pool resolved to %d", w)
	}
	if w := NewPool(7).workers; w != 7 {
		t.Fatalf("explicit width: got %d, want 7", w)
	}
}

func TestMapCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewPool(workers)
		const n = 257
		hits := make([]atomic.Int64, n)
		if err := p.Map(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestMapIndexAddressedResultsDeterministic(t *testing.T) {
	run := func(workers int) []int {
		p := NewPool(workers)
		out := make([]int, 100)
		if err := p.Map(len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	failAt := map[int]bool{13: true, 40: true, 77: true}
	for _, workers := range []int{1, 4, 16} {
		p := NewPool(workers)
		err := p.Map(100, func(i int) error {
			if failAt[i] {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 13 failed" {
			t.Fatalf("workers=%d: got %v, want job 13 failed", workers, err)
		}
	}
}

func TestMapStopsDispatchAfterError(t *testing.T) {
	// With one worker the loop must stop exactly at the failing index.
	p := NewPool(1)
	var ran atomic.Int64
	sentinel := errors.New("boom")
	err := p.Map(100, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("ran %d jobs, want 6", got)
	}
}

// TestNestedMapSharesBudget runs a Map inside every outer job and checks
// that (a) nesting completes correctly and (b) the number of jobs running
// at once never exceeds the pool width — nested calls draw from one token
// pot instead of multiplying goroutines.
func TestNestedMapSharesBudget(t *testing.T) {
	const width = 4
	p := NewPool(width)
	var running, peak atomic.Int64
	out := make([][]int, 6)
	err := p.Map(len(out), func(i int) error {
		inner := make([]int, 20)
		e := p.Map(len(inner), func(j int) error {
			cur := running.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			inner[j] = i*100 + j
			running.Add(-1)
			return nil
		})
		out[i] = inner
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j, v := range out[i] {
			if v != i*100+j {
				t.Fatalf("out[%d][%d] = %d", i, j, v)
			}
		}
	}
	if got := peak.Load(); got > width {
		t.Fatalf("peak concurrency %d exceeds pool width %d", got, width)
	}
}

func TestMapZeroJobs(t *testing.T) {
	p := NewPool(4)
	called := false
	if err := p.Map(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestGatherOrdersResults(t *testing.T) {
	p := NewPool(8)
	out, err := Gather(p, 50, func(i int) (string, error) {
		return fmt.Sprintf("r%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("slot %d = %q", i, v)
		}
	}
	if _, err := Gather(p, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	}); err == nil {
		t.Fatal("Gather swallowed error")
	}
}
