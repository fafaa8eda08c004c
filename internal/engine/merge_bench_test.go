package engine

import (
	"testing"

	"fadewich/internal/core"
)

// syntheticRuns builds per-office action runs with realistic timing:
// each office emits its actions in short alert cascades (eight actions
// one tick apart) separated by quiet stretches, phase-shifted per
// office in twelve groups. Times are stamped exactly as core.System
// does — float64(tick)·DT on the shared tick grid — so many actions
// across offices carry bit-equal times, and same-group offices tie
// constantly, exercising the office-ID tie-break.
func syntheticRuns(offices, perOffice int) [][]OfficeAction {
	const dt = 0.2
	runs := make([][]OfficeAction, offices)
	for o := range runs {
		r := make([]OfficeAction, 0, perOffice)
		tick := (o % 12) * 8 // phase group
		for len(r) < perOffice {
			for j := 0; j < 8 && len(r) < perOffice; j++ { // one cascade
				r = append(r, OfficeAction{Office: o, Action: core.Action{
					Time:        float64(tick) * dt,
					Type:        core.ActionAlertEnter,
					Workstation: len(r) % 3,
				}})
				tick++
			}
			tick += 750 // quiet until the next cascade
		}
		runs[o] = r
	}
	return runs
}

// workloadRuns shapes one batch like the end-to-end workloads: 128
// offices of which a few act, 13 actions in all (a traced serve-paced
// run carries 12.6 per batch), on four shared ticks.
func workloadRuns() [][]OfficeAction {
	const dt = 0.2
	runs := make([][]OfficeAction, 128)
	for i := 0; i < 13; i++ {
		o := i * 128 / 13
		runs[o] = append(runs[o], OfficeAction{Office: o, Action: core.Action{
			Time:        float64(1000+i%4) * dt,
			Type:        core.ActionAlertEnter,
			Workstation: i % 3,
		}})
	}
	return runs
}

// BenchmarkFleetMerge measures MergeRuns, the merge Fleet.Run performs
// per batch, at 64, 256 and 1024 offices over a fixed fleet-wide action
// volume (32k actions per batch, so the metric isolates merge fan-in
// from data volume), and on one workload-shaped batch: 128 offices,
// 13 actions. ns/action is the tracked metric.
func BenchmarkFleetMerge(b *testing.B) {
	const totalActions = 32768
	cases := []struct {
		name string
		runs [][]OfficeAction
	}{
		{"offices-64", syntheticRuns(64, totalActions/64)},
		{"offices-256", syntheticRuns(256, totalActions/256)},
		{"offices-1024", syntheticRuns(1024, totalActions/1024)},
		{"offices-128-actions-13", workloadRuns()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			total := 0
			for _, r := range tc.runs {
				total += len(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if merged := MergeRuns(tc.runs, 0.2); len(merged) != total {
					b.Fatalf("merged %d actions, want %d", len(merged), total)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/action")
		})
	}
}
