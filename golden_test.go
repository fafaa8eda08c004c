package fadewich_test

import (
	"hash/fnv"
	"math"
	"testing"

	"fadewich"
	"fadewich/internal/rng"
)

// goldenFleetStream pins the byte-exact merged action stream of a
// homogeneous 64-office fleet run: every office is authenticated by
// input events, sits through the MD warm-up, then sees anomaly bursts at
// office-staggered offsets that drive the alert → screensaver → deauth
// cascade. Recorded from the concat-and-sort merge that predates the
// k-way shard merge; any merge or delivery refactor must reproduce it
// bit for bit (same total order: time, then office ID, then per-office
// emission order).
const goldenFleetStream uint64 = 0xb8df95c32ac97378

// goldenFleetTicks synthesises office o's RSSI ticks: quiet AR-free
// Gaussian wiggle around -60 dBm with two anomalous high-variance
// stretches whose offsets depend on the office ID.
func goldenFleetTicks(o, ticks, streams int) [][]float64 {
	src := rng.New(uint64(o)*0x9e3779b9 + 1)
	rows := make([][]float64, ticks)
	burst1 := 200 + (o%7)*10
	burst2 := 420 + (o%5)*12
	for t := range rows {
		std := 0.5
		if (t >= burst1 && t < burst1+60) || (t >= burst2 && t < burst2+80) {
			std = 6.0
		}
		row := make([]float64, streams)
		for k := range row {
			row[k] = -60 + src.Normal(0, std)
		}
		rows[t] = row
	}
	return rows
}

func TestFleetActionStreamGolden(t *testing.T) {
	const (
		offices    = 64
		streams    = 12
		ticks      = 600
		batchTicks = 50
	)
	fleet, err := fadewich.NewFleet(fadewich.FleetConfig{
		Offices: offices,
		System:  fadewich.SystemConfig{Streams: streams, Workstations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][][]float64, offices)
	for o := range data {
		data[o] = goldenFleetTicks(o, ticks, streams)
	}

	h := fnv.New64a()
	var buf [8]byte
	put64 := func(bits uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		h.Write(buf[:])
	}
	for start := 0; start < ticks; start += batchTicks {
		end := start + batchTicks
		if end > ticks {
			end = ticks
		}
		batch := make([]fadewich.OfficeBatch, offices)
		var evs []fadewich.InputEvent
		for o := range batch {
			batch[o] = fadewich.OfficeBatch{Office: o, Ticks: data[o][start:end]}
			// Authenticate every workstation up front, then keep w0 alive
			// with sparse office-staggered input so some sessions idle into
			// the alert cascade and others cancel it.
			if start == 0 {
				for ws := 0; ws < 3; ws++ {
					evs = append(evs, fadewich.InputEvent{Office: o, Workstation: ws, Tick: 0})
				}
			}
			if (start/batchTicks+o)%3 == 0 {
				evs = append(evs, fadewich.InputEvent{Office: o, Workstation: 0, Tick: 10 + o%20})
			}
		}
		acts, err := fleet.Run(batch, evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range acts {
			put64(uint64(int64(a.Office)))
			put64(math.Float64bits(a.Action.Time))
			put64(uint64(a.Action.Type))
			put64(uint64(int64(a.Action.Workstation)))
			put64(uint64(a.Action.Cause))
			put64(uint64(int64(a.Action.Label)))
		}
	}
	if got := h.Sum64(); got != goldenFleetStream {
		t.Fatalf("golden hash %#x, want %#x: 64-office merged action stream diverged from the pre-refactor byte stream", got, goldenFleetStream)
	}
}
