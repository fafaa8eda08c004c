package stream

import (
	"testing"

	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// TestIngestorSteadyStateAllocs pins the queue machinery's allocation
// behaviour: once every office's arena and row headers are warm, a full
// push-and-flush cycle must not allocate per tick or per office. Push
// copies samples into the office's flat tick arena, the dispatcher's
// snapshot lends that arena to the batch as row subslices through the
// office's reusable header array and the shared batch/event buffers,
// and the fleet's routing scratch is pooled on its side. The residue is
// the fleet's merged-result slice plus detector internals — a small
// constant, where one allocation per pushed tick would be 512.
func TestIngestorSteadyStateAllocs(t *testing.T) {
	const (
		offices    = 8
		streams    = 4
		batchTicks = 64
	)
	in := newAllocIngestor(t, offices, streams, Config{Queue: batchTicks})
	cycle := pushCycle(t, in, offices, streams, batchTicks)
	// Warm the arenas, snapshot buffers and detector windows.
	for i := 0; i < 50; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(20, cycle)
	// 512 ticks per cycle: well under one allocation per tick means the
	// arenas and headers are reused. Measured 15 (all constant residue);
	// the bound leaves headroom for detector refit cadence without
	// masking a per-tick regression.
	if allocs > 64 {
		t.Fatalf("push/flush cycle allocates %.1f times (%d ticks), want <= 64", allocs, offices*batchTicks)
	}
}

// TestIngestorDropOldestSteadyStateAllocs is the DropOldest counterpart:
// 500 pushes per office into a 64-tick queue evict 436 ticks per office
// per cycle. Evictions advance the arena's head and compact it in place
// once they fill half of it, so a warm cycle allocates nothing per push.
func TestIngestorDropOldestSteadyStateAllocs(t *testing.T) {
	const (
		offices = 8
		streams = 4
		queue   = 64
		pushes  = 500
	)
	in := newAllocIngestor(t, offices, streams, Config{Queue: queue, OnFull: DropOldest})
	cycles := 0
	push := pushCycle(t, in, offices, streams, pushes)
	cycle := func() { push(); cycles++ }
	for i := 0; i < 20; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(20, cycle)
	// Same constant residue as TestIngestorSteadyStateAllocs (the fleet
	// runs 64 ticks per office either way); one allocation per push
	// would be 4,000.
	if allocs > 64 {
		t.Fatalf("drop-oldest push/flush cycle allocates %.1f times (%d pushes), want <= 64", allocs, offices*pushes)
	}
	st := in.Stats()
	if want := uint64(offices * (pushes - queue) * cycles); st.Dropped != want {
		t.Fatalf("dropped %d ticks, want %d", st.Dropped, want)
	}
	m := in.members.Load()
	for _, id := range m.ids {
		if c := cap(m.q[id].samples); c >= 2*queue*streams {
			t.Fatalf("office %d arena holds %d samples, want < 2 × queue × width = %d", id, c, 2*queue*streams)
		}
	}
}

// TestIngestorArenasShrinkWithTraffic pins the 4× rule: after ten
// 500-tick cycles (a training burst) and ten 8-tick cycles (paced
// traffic), every office's arenas and row headers are sized to the
// 8-tick batches, not to the burst.
func TestIngestorArenasShrinkWithTraffic(t *testing.T) {
	const (
		offices = 8
		streams = 4
	)
	in := newAllocIngestor(t, offices, streams, Config{Queue: 512})
	burst := pushCycle(t, in, offices, streams, 500)
	paced := pushCycle(t, in, offices, streams, 8)
	for i := 0; i < 10; i++ {
		burst()
	}
	if b := in.Stats().BufferBytes; b < offices*500*streams*8 {
		t.Fatalf("after 500-tick cycles the queues hold %d bytes, want at least one 500-tick arena per office", b)
	}
	for i := 0; i < 10; i++ {
		paced()
	}
	const limit = 4 * 8 * streams
	m := in.members.Load()
	var want uint64
	for _, id := range m.ids {
		q := m.q[id]
		q.mu.Lock()
		arenas, rows := cap(q.samples)+cap(q.spare)+cap(q.lent), cap(q.rows)
		want += q.bufferBytes()
		q.mu.Unlock()
		if arenas > limit {
			t.Errorf("office %d keeps %d samples of arena after 8-tick batches, want <= %d", id, arenas, limit)
		}
		if rows > 4*8 {
			t.Errorf("office %d keeps %d row headers after 8-tick batches, want <= 32", id, rows)
		}
	}
	if got := in.Stats().BufferBytes; got != want {
		t.Fatalf("Stats().BufferBytes = %d, want the offices' sum %d", got, want)
	}
}

// newAllocIngestor returns an ingestor over a fresh fleet of offices
// with streams streams each, closed when the test ends.
func newAllocIngestor(t *testing.T, offices, streams int, cfg Config) *Ingestor {
	t.Helper()
	fleet, err := engine.NewFleet(engine.FleetConfig{
		Offices: offices,
		System:  core.Config{Streams: streams, Workstations: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngestor(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	return in
}

// pushCycle returns a cycle that pushes ticks ticks to every office and
// flushes.
func pushCycle(t *testing.T, in *Ingestor, offices, streams, ticks int) func() {
	row := make([]float64, streams)
	for k := range row {
		row[k] = -60 + float64(k)
	}
	return func() {
		for o := 0; o < offices; o++ {
			for i := 0; i < ticks; i++ {
				if err := in.Push(o, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}
