package engine

import (
	"slices"
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

// TestMergeIdenticalAcrossWorkerCounts checks Fleet.Run produces a
// byte-identical stream for every worker count: each width hands the
// per-office tasks to the pool's goroutines in a different interleaving.
func TestMergeIdenticalAcrossWorkerCounts(t *testing.T) {
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

// naiveMerge is the reference for MergeRuns: it repeatedly takes the
// smallest run head by (time, office). Runs must be ordered by (time,
// office) and hold disjoint offices, so no two heads tie.
func naiveMerge(runs [][]OfficeAction) []OfficeAction {
	pos := make([]int, len(runs))
	var out []OfficeAction
	for {
		best := -1
		for ri, r := range runs {
			if pos[ri] == len(r) {
				continue
			}
			if best < 0 {
				best = ri
				continue
			}
			x, y := r[pos[ri]], runs[best][pos[best]]
			if x.Action.Time < y.Action.Time || x.Action.Time == y.Action.Time && x.Office < y.Office {
				best = ri
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][pos[best]])
		pos[best]++
	}
}

// mergeCases are the run sets TestMergeRunsOrdering merges.
func mergeCases() []struct {
	name string
	runs [][]OfficeAction
} {
	const dt = 0.2
	mk := func(office int, times ...float64) []OfficeAction {
		out := make([]OfficeAction, len(times))
		for i, ts := range times {
			out[i] = OfficeAction{Office: office, Action: core.Action{Time: ts, Workstation: i}}
		}
		return out
	}
	// Off-grid: one time moved between ticks.
	offGrid := syntheticRuns(48, 40)
	offGrid[3][2].Action.Time += 0.05
	sortRunFix(offGrid[3])
	// Sparse tick span: a joiner's near-zero clock next to a multi-day
	// one.
	sparse := [][]OfficeAction{make([]OfficeAction, 40), make([]OfficeAction, 40)}
	for i := range sparse[0] {
		sparse[0][i] = OfficeAction{Office: 0, Action: core.Action{Time: float64(i) * dt}}
		sparse[1][i] = OfficeAction{Office: 1, Action: core.Action{Time: float64(10_000_000+i) * dt}}
	}
	// Two offices sampling at different periods: their grids meet every
	// second (5·0.2 = 4·0.25 = 1 exactly).
	mixedDT := [][]OfficeAction{make([]OfficeAction, 60), make([]OfficeAction, 48)}
	for i := range mixedDT[0] {
		mixedDT[0][i] = OfficeAction{Office: 7, Action: core.Action{Time: float64(i) * dt, Workstation: i}}
	}
	for i := range mixedDT[1] {
		mixedDT[1][i] = OfficeAction{Office: 3, Action: core.Action{Time: float64(i) * 0.25, Workstation: i}}
	}
	// Per-worker sub-batches, as the cluster router merges them: each
	// run holds many offices, already merged.
	heavy := syntheticRuns(48, 40)
	var even, odd [][]OfficeAction
	for o, r := range heavy {
		if o%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	return []struct {
		name string
		runs [][]OfficeAction
	}{
		{"crafted", [][]OfficeAction{
			mk(2, 1.0, 1.0, 3.0),
			mk(0, 1.0, 2.0),
			nil,
			mk(5, 0.5, 1.0, 1.0, 4.0),
		}},
		{"single-run", [][]OfficeAction{nil, mk(4, 0.2, 0.2, 0.4)}},
		{"heavy-ties", heavy},
		{"off-grid", offGrid},
		{"sparse", sparse},
		{"mixed-dt", mixedDT},
		{"worker-runs", [][]OfficeAction{naiveMerge(odd), naiveMerge(even)}},
	}
}

// TestMergeRunsOrdering checks MergeRuns against naiveMerge on every
// case of mergeCases, with the runs in their given, reversed and
// shuffled order (the router passes runs in source order, not office
// order): cross-run ties on time order by office ID, every office stays
// FIFO, and the result never shares a run's backing array.
func TestMergeRunsOrdering(t *testing.T) {
	for _, tc := range mergeCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveMerge(tc.runs)
			reversed := slices.Clone(tc.runs)
			slices.Reverse(reversed)
			orders := [][][]OfficeAction{tc.runs, reversed}
			src := rng.New(uint64(len(want)))
			for i := 0; i < 4; i++ {
				shuffled := slices.Clone(tc.runs)
				for j := len(shuffled) - 1; j > 0; j-- {
					k := src.Intn(j + 1)
					shuffled[j], shuffled[k] = shuffled[k], shuffled[j]
				}
				orders = append(orders, shuffled)
			}
			for oi, runs := range orders {
				got := MergeRuns(runs, 0.2)
				if !slices.Equal(got, want) {
					t.Fatalf("order %d: MergeRuns differs from the naive merge:\n got %+v\nwant %+v", oi, got, want)
				}
				for _, r := range runs {
					if len(r) > 0 && &got[0] == &r[0] {
						t.Fatalf("order %d: merged slice aliases an input run", oi)
					}
				}
			}
		})
	}
	crafted := MergeRuns(mergeCases()[0].runs, 0)
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
	if !slices.Equal(crafted, want) {
		t.Fatalf("crafted merge %+v, want %+v", crafted, want)
	}
	if MergeRuns(nil, 0.2) != nil || MergeRuns([][]OfficeAction{nil, nil}, 0.2) != nil {
		t.Fatal("empty merges should return nil")
	}
}

// sortRunFix re-sorts one run by time after a test perturbation so it
// still satisfies MergeRuns' ordered-run precondition.
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
