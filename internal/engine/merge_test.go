package engine

import (
	"sort"
	"testing"

	"fadewich/internal/core"
	"fadewich/internal/rng"
)

// noisyBatch synthesises one office's ticks: quiet wiggle with an
// anomalous stretch whose offset depends on the office, so offices emit
// interleaved actions for the merge to order.
func noisyBatch(o, ticks, streams int) [][]float64 {
	src := rng.New(uint64(o)*31 + 7)
	rows := make([][]float64, ticks)
	for t := range rows {
		std := 0.5
		if t >= 180+(o%9)*8 && t < 260+(o%9)*8 {
			std = 6
		}
		row := make([]float64, streams)
		for k := range row {
			row[k] = -60 + src.Normal(0, std)
		}
		rows[t] = row
	}
	return rows
}

// runFleetOnce drives a fresh fleet over the synthetic day with the
// given worker count and returns the concatenated merged stream.
func runFleetOnce(t *testing.T, offices, workers int) []OfficeAction {
	t.Helper()
	const (
		streams    = 6
		ticks      = 400
		batchTicks = 80
	)
	f, err := NewFleet(FleetConfig{
		Offices: offices,
		Workers: workers,
		System:  core.Config{Streams: streams, Workstations: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][][]float64, offices)
	for o := range data {
		data[o] = noisyBatch(o, ticks, streams)
	}
	var all []OfficeAction
	for start := 0; start < ticks; start += batchTicks {
		batch := make([][][]float64, offices)
		var evs []InputEvent
		for o := range batch {
			batch[o] = data[o][start : start+batchTicks]
			if start == 0 {
				evs = append(evs, InputEvent{Office: o, Workstation: 0, Tick: 0},
					InputEvent{Office: o, Workstation: 1, Tick: 0})
			}
		}
		acts, err := f.Run(officeBatches(batch), evs)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, acts...)
	}
	return all
}

// TestMergeIdenticalAcrossShardShapes checks the shard-local two-level
// merge produces a byte-identical stream for every worker count — each
// width partitions the fleet into different shard shapes (64 offices:
// 4 shards of 16 at one worker, 32 shards of 2 at eight, one office per
// shard at 16+).
func TestMergeIdenticalAcrossShardShapes(t *testing.T) {
	ref := runFleetOnce(t, 64, 1)
	if len(ref) == 0 {
		t.Fatal("synthetic day emitted no actions; the merge test is vacuous")
	}
	for _, workers := range []int{2, 3, 8, 16, 64} {
		got := runFleetOnce(t, 64, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d actions, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: action %d = %+v, want %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestMergeRunsOrdering exercises mergeRuns directly on crafted runs:
// cross-run ties on time must order by office ID and every run must
// stay FIFO.
func TestMergeRunsOrdering(t *testing.T) {
	mk := func(office int, times ...float64) []OfficeAction {
		out := make([]OfficeAction, len(times))
		for i, ts := range times {
			out[i] = OfficeAction{Office: office, Action: core.Action{Time: ts, Workstation: i}}
		}
		return out
	}
	runs := [][]OfficeAction{
		mk(2, 1.0, 1.0, 3.0),
		mk(0, 1.0, 2.0),
		nil,
		mk(5, 0.5, 1.0, 1.0, 4.0),
	}
	got := mergeRuns(runs, 0)
	want := []OfficeAction{
		{Office: 5, Action: core.Action{Time: 0.5, Workstation: 0}},
		{Office: 0, Action: core.Action{Time: 1.0, Workstation: 0}},
		{Office: 2, Action: core.Action{Time: 1.0, Workstation: 0}},
		{Office: 2, Action: core.Action{Time: 1.0, Workstation: 1}},
		{Office: 5, Action: core.Action{Time: 1.0, Workstation: 1}},
		{Office: 5, Action: core.Action{Time: 1.0, Workstation: 2}},
		{Office: 0, Action: core.Action{Time: 2.0, Workstation: 1}},
		{Office: 2, Action: core.Action{Time: 3.0, Workstation: 2}},
		{Office: 5, Action: core.Action{Time: 4.0, Workstation: 3}},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d actions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if mergeRuns(nil, 0.2) != nil || mergeRuns([][]OfficeAction{nil, nil}, 0.2) != nil {
		t.Fatal("empty merges should return nil")
	}
}

// TestBucketMergeMatchesHeap checks the counting-sort fast path against
// the heap merge on tick-grid runs, and that each of its preconditions
// falls back to the heap (returns nil) instead of mis-merging.
func TestBucketMergeMatchesHeap(t *testing.T) {
	const dt = 0.2
	runs := syntheticRuns(48, 40) // ascending offices, grid times, heavy ties
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	fast := new(mergeScratch).bucket(runs, total, dt, true)
	if fast == nil {
		t.Fatal("bucket merge rejected tick-grid input")
	}
	ref := mergeRuns(runs, 0) // dt 0 forces the heap path
	if len(fast) != len(ref) {
		t.Fatalf("bucket merged %d actions, heap %d", len(fast), len(ref))
	}
	for i := range ref {
		if fast[i] != ref[i] {
			t.Fatalf("action %d: bucket %+v, heap %+v", i, fast[i], ref[i])
		}
	}

	// Off-grid time: must fall back.
	offGrid := syntheticRuns(48, 40)
	offGrid[3][2].Action.Time += 0.05
	sortRunFix(offGrid[3])
	if new(mergeScratch).bucket(offGrid, total, dt, true) != nil {
		t.Fatal("bucket merge accepted an off-grid time")
	}
	// Non-ascending office ranges: must fall back.
	swapped := syntheticRuns(48, 40)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if new(mergeScratch).bucket(swapped, total, dt, true) != nil {
		t.Fatal("bucket merge accepted non-ascending office ranges")
	}
	// Sparse span (a joiner's near-zero clock next to a multi-day one):
	// must fall back.
	sparse := [][]OfficeAction{
		make([]OfficeAction, 40),
		make([]OfficeAction, 40),
	}
	for i := range sparse[0] {
		sparse[0][i] = OfficeAction{Office: 0, Action: core.Action{Time: float64(i) * dt}}
		sparse[1][i] = OfficeAction{Office: 1, Action: core.Action{Time: float64(10_000_000+i) * dt}}
	}
	if new(mergeScratch).bucket(sparse, 80, dt, true) != nil {
		t.Fatal("bucket merge accepted a hugely sparse tick span")
	}
	if got := mergeRuns(sparse, dt); len(got) != 80 || got[0].Office != 0 || got[79].Office != 1 {
		t.Fatalf("sparse fallback merged wrong: len %d", len(got))
	}
}

// sortRunFix re-sorts one run by time after a test perturbation so it
// still satisfies mergeRuns' ordered-run precondition.
func sortRunFix(r []OfficeAction) {
	sort.SliceStable(r, func(a, b int) bool { return r[a].Action.Time < r[b].Action.Time })
}

// TestRunEmptyBatchIsNoOp pins the empty-batch contract: Run with no
// batches and no inputs returns an empty stream instead of panicking.
func TestRunEmptyBatchIsNoOp(t *testing.T) {
	f, err := NewFleet(FleetConfig{Offices: 2, System: core.Config{Streams: 2, Workstations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, batches := range [][]OfficeBatch{nil, {}} {
		acts, err := f.Run(batches, nil)
		if err != nil || acts != nil {
			t.Fatalf("Run(%v, nil) = (%v, %v), want (nil, nil)", batches, acts, err)
		}
	}
}

// TestShardSizeHeuristic pins the shard-local batching policy.
func TestShardSizeHeuristic(t *testing.T) {
	cases := []struct {
		offices, workers, want int
	}{
		{1, 8, 1},
		{32, 8, 1}, // ≤ 4·workers: one office per task
		{64, 8, 2}, // beyond it, shards grow with the fleet
		{1024, 8, 32},
		{10000, 8, 313},
		{64, 1, 16},
		{5, 0, 5}, // degenerate worker count still shards sanely
	}
	for _, c := range cases {
		if got := shardSize(c.offices, c.workers); got != c.want {
			t.Fatalf("shardSize(%d, %d) = %d, want %d", c.offices, c.workers, got, c.want)
		}
	}
}
