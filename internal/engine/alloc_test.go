package engine

import (
	"testing"
)

// TestFleetRunSteadyStateAllocs pins Fleet.Run's per-batch allocation
// overhead independent of fleet size: once the pooled scratch is warm, a
// 64-office batch must not allocate per office — the work structs,
// routing map and run headers are all reused. Only a small constant
// residue remains (the pool dispatch closure and, when actions are
// emitted, the merged slice MergeRuns returns fresh, as the API
// contract requires).
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
	// Well under one allocation per office (about 27 at 64 offices:
	// periodic md.Detector KDE refits plus the pool dispatch, none of it
	// per-office routing). The unpooled path allocated 150+ — one work
	// struct per office plus map, worklist and run headers — so the
	// bound cleanly catches a regression to that.
	if allocs > 48 {
		t.Fatalf("Fleet.Run allocates %.1f times per batch at %d offices, want <= 48", allocs, offices)
	}
}
