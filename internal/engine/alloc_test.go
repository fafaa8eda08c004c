package engine

import (
	"testing"
)

// TestMergeScratchReuseNoAllocs locks the scratch-backed merge at zero
// steady-state allocations on both strategies: the counting-sort bucket
// path (shared tick grid) and the index-heap path (dt 0, no grid). This
// is the guarantee Fleet.Run's intermediate shard merges rely on.
func TestMergeScratchReuseNoAllocs(t *testing.T) {
	runs := syntheticRuns(48, 40)
	ref := mergeRuns(runs, 0.2)
	for _, tc := range []struct {
		name string
		dt   float64
	}{
		{"bucket", 0.2},
		{"heap", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sc mergeScratch
			got := sc.merge(runs, tc.dt, false) // warm the buffers
			if len(got) != len(ref) {
				t.Fatalf("merged %d actions, want %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("action %d: scratch merge %+v, reference %+v", i, got[i], ref[i])
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				sc.merge(runs, tc.dt, false)
			})
			if allocs != 0 {
				t.Fatalf("scratch merge allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestFleetRunSteadyStateAllocs pins Fleet.Run's per-batch allocation
// overhead independent of fleet size: once the pooled scratch is warm, a
// 64-office batch must not allocate per office — the work structs,
// routing map, shard runs and merge temporaries are all reused. Only a
// small constant residue remains (the pool dispatch closure and, when
// actions are emitted, the fresh result slice the API contract requires).
func TestFleetRunSteadyStateAllocs(t *testing.T) {
	const offices = 64
	f, err := NewFleet(fleetCfg(offices, 0))
	if err != nil {
		t.Fatal(err)
	}
	batch, inputs := fleetScenario(offices, 8)
	obs := officeBatches(batch)
	run := func() {
		if _, err := f.Run(obs, inputs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm until the training-phase detector windows stop growing; the
	// routing scratch itself is warm after one batch.
	for i := 0; i < 200; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	// Well under one allocation per office (measured ~27 at 64 offices:
	// periodic md.Detector KDE refits plus the pool dispatch, none of it
	// per-office routing). The unpooled path allocated 150+ — one work
	// struct per office plus map, worklist, shard runs and merge
	// temporaries — so the bound cleanly catches a regression to that.
	if allocs > 48 {
		t.Fatalf("Fleet.Run allocates %.1f times per batch at %d offices, want <= 48", allocs, offices)
	}
}
