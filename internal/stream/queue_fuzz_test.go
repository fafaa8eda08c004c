package stream

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// refQueue is the reference model of one office queue: a plain slice of
// tick rows with the counters the arena queue must reproduce.
type refQueue struct {
	width                 int
	ticks                 [][]float64
	pend                  []pendingInput
	base, dropped, pushed uint64
}

// FuzzIngestorQueue drives the flat-arena queues with random sequences
// of Push, PushInput, wrong-width pushes, takeSnapshot+recycleBatch
// called directly — with and without pushes while the batch is out —
// and Advance, under DropOldest and ErrorOnFull, for offices of
// different widths. Every snapshot must equal the reference queue's
// rows bit for bit, with the same input tick indices, bases, drop
// counts and depths; the lent rows must survive pushes made while the
// batch is out; and after every recycle an office may keep idle arenas
// of at most 4× its last batch, plus the active arena holding the next
// batch, each under 2 × Queue × width samples.
//
// Advance runs the queues through the fleet and must emit nothing. The
// closing Flush must then emit one batch equal to a single Run, on a
// second fleet, of everything the Advances and the Flush took from the
// reference queues: the single-flush reference. (Direct snapshots take
// their ticks past the fleet, so neither side runs them.)
func FuzzIngestorQueue(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 4, 0, 4, 8, 1, 5, 3, 0, 0, 4, 3, 2})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0, 0, 3, 1, 0, 3, 0, 2, 3, 0})
	f.Add([]byte{7, 1, 3, 3, 1, 5, 0, 4, 8, 12, 16, 20, 24, 28, 32, 3, 3, 0, 4, 8, 3, 0, 3, 0, 1, 2, 3})
	long := []byte{15, 1, 1, 4}
	for i := 0; i < 200; i++ {
		long = append(long, 0)
		if i%50 == 49 {
			long = append(long, 3, byte(i%4))
		}
	}
	f.Add(long)
	// Rounds of an input and eight ticks per office, each ended by an
	// Advance (7), then a direct snapshot with two pushes while it is out
	// (6, 2, 0, 16), under DropOldest and under ErrorOnFull.
	for _, policy := range []byte{1, 0} {
		held := []byte{15, policy, 2, 0, 1, 2}
		for r := 0; r < 6; r++ {
			held = append(held, 4, 12)
			for i := 0; i < 8; i++ {
				held = append(held, 0, 16, 8)
			}
			held = append(held, 7)
		}
		f.Add(append(held, 6, 2, 0, 16, 0, 0))
	}
	// Office 0 acts late in the held run, office 1 early in the flush's
	// own: the emitted batch must interleave them by time.
	late := []byte{15, 1, 2, 0, 1, 2}
	late = append(late, bytes.Repeat([]byte{0}, 10)...)
	late = append(late, 4)
	late = append(late, bytes.Repeat([]byte{0}, 10)...)
	late = append(late, 12, 16, 16, 7)
	f.Add(append(late, bytes.Repeat([]byte{16}, 8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		queue := 1 + int(next()%16)
		policy := ErrorOnFull
		if next()&1 == 1 {
			policy = DropOldest
		}
		offices := 1 + int(next()%3)
		refs := make([]*refQueue, offices)
		perOffice := make(map[int]core.Config, offices)
		for id := range refs {
			w := 1 + int(next()%5)
			refs[id] = &refQueue{width: w}
			// A one-second time-out makes every input end in a
			// deauthentication five ticks on, so the fleet acts.
			perOffice[id] = core.Config{Streams: w, Workstations: 4, Params: control.Params{TimeoutSec: 1}}
		}
		newFleet := func() *engine.Fleet {
			fl, err := engine.NewFleet(engine.FleetConfig{Offices: offices, PerOffice: perOffice, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return fl
		}
		var emitted [][]engine.OfficeAction
		in, err := NewIngestor(newFleet(), Config{Queue: queue, OnFull: policy,
			OnBatch: func(acts []engine.OfficeAction) { emitted = append(emitted, acts) }})
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		m := in.members.Load()
		// sent is what the Advances and the closing Flush took from the
		// reference queues, per office, as one batch for the reference
		// fleet.
		sent := make([]engine.OfficeBatch, offices)
		var sentEvs []engine.InputEvent
		for id := range sent {
			sent[id].Office = id
		}
		send := func() {
			wantBatch, wantEvs := snapshotRef(refs)
			for _, ev := range wantEvs {
				ev.Tick += len(sent[ev.Office].Ticks)
				sentEvs = append(sentEvs, ev)
			}
			for _, ob := range wantBatch {
				sent[ob.Office].Ticks = append(sent[ob.Office].Ticks, ob.Ticks...)
			}
		}

		var stamp uint64
		push := func(b byte) {
			id := int(b>>2) % offices
			r := refs[id]
			row := make([]float64, r.width)
			for k := range row {
				// Distinct plausible dBm values, so the fleet can run
				// them and a mixed-up row shows.
				stamp++
				row[k] = -80 + float64(stamp*7919%4001)/100
			}
			err := in.Push(id, row)
			if len(r.ticks) >= queue {
				if policy == ErrorOnFull {
					r.dropped++
					if !errors.Is(err, ErrQueueFull) {
						t.Fatalf("push to full office %d: err %v, want ErrQueueFull", id, err)
					}
					return
				}
				r.ticks = r.ticks[1:]
				r.base++
				r.dropped++
			}
			if err != nil {
				t.Fatalf("push to office %d: %v", id, err)
			}
			r.ticks = append(r.ticks, row)
			r.pushed++
		}
		check := func() {
			for id, r := range refs {
				q := m.q[id]
				q.mu.Lock()
				depth, base, dropped, pushed := q.queued(), q.base, q.dropped, q.pushed
				atomicDepth := q.depth.Load()
				q.mu.Unlock()
				if depth != len(r.ticks) || atomicDepth != int64(depth) || base != r.base || dropped != r.dropped || pushed != r.pushed {
					t.Fatalf("office %d: depth %d (atomic %d) base %d dropped %d pushed %d, want %d %d %d %d",
						id, depth, atomicDepth, base, dropped, pushed, len(r.ticks), r.base, r.dropped, r.pushed)
				}
			}
		}

		for len(data) > 0 {
			b := next()
			switch b & 7 {
			case 0, 1, 2, 3:
				push(b)
			case 4:
				id := int(b>>3) % offices
				ws := int(b>>5) & 3
				if err := in.PushInput(id, ws); err != nil {
					t.Fatal(err)
				}
				r := refs[id]
				r.pend = append(r.pend, pendingInput{ws: ws, seq: r.base + uint64(len(r.ticks))})
			case 5:
				id := int(b>>3) % offices
				bad := make([]float64, refs[id].width+1)
				if err := in.Push(id, bad); !errors.Is(err, ErrTickWidth) {
					t.Fatalf("wrong-width push: err %v, want ErrTickWidth", err)
				}
			case 7:
				send()
				if err := in.Advance(); err != nil {
					t.Fatal(err)
				}
				if len(emitted) > 0 || in.Stats().Batches > 0 {
					t.Fatalf("Advance emitted %d batches (%d counted)", len(emitted), in.Stats().Batches)
				}
			default:
				// Snapshot, optionally push while the batch is out, then
				// recycle.
				wantBatch, wantEvs := snapshotRef(refs)
				batch, evs, n := in.takeSnapshot(m)
				compareBatch(t, "snapshot", batch, evs, n, wantBatch, wantEvs)
				check()
				for k := int(next() % 6); k > 0; k-- {
					push(next())
				}
				compareBatch(t, "snapshot after pushes", batch, evs, n, wantBatch, wantEvs)
				used := make(map[int]int, len(batch))
				for _, ob := range batch {
					used[ob.Office] = len(ob.Ticks)
				}
				in.recycleBatch(m, batch)
				for id, k := range used {
					checkRetained(t, m.q[id], k, queue)
				}
			}
			check()
		}

		send()
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
		check()
		var batch []engine.OfficeBatch
		for _, ob := range sent {
			if len(ob.Ticks) > 0 {
				batch = append(batch, ob)
			}
		}
		want, err := newFleet().Run(batch, sentEvs)
		if err != nil {
			t.Fatal(err)
		}
		wantBatches := uint64(0)
		if len(batch) > 0 || len(sentEvs) > 0 {
			wantBatches = 1
		}
		if st := in.Stats(); st.Batches != wantBatches || st.Actions != uint64(len(want)) {
			t.Fatalf("Stats counts %d batches, %d actions; want %d, %d", st.Batches, st.Actions, wantBatches, len(want))
		}
		switch {
		case len(want) == 0 && len(emitted) != 0:
			t.Fatalf("%d batches emitted, want none", len(emitted))
		case len(want) > 0 && (len(emitted) != 1 || !reflect.DeepEqual(emitted[0], want)):
			t.Fatalf("emitted %v\nwant one batch %v", emitted, want)
		}
	})
}

// snapshotRef empties the reference queues into the batch and events a
// snapshot must produce, advancing their bases.
func snapshotRef(refs []*refQueue) ([]engine.OfficeBatch, []engine.InputEvent) {
	var batch []engine.OfficeBatch
	var evs []engine.InputEvent
	for id, r := range refs {
		for _, pi := range r.pend {
			tick := 0
			if pi.seq > r.base {
				tick = int(pi.seq - r.base)
			}
			evs = append(evs, engine.InputEvent{Office: id, Workstation: pi.ws, Tick: tick})
		}
		r.pend = nil
		if len(r.ticks) > 0 {
			batch = append(batch, engine.OfficeBatch{Office: id, Ticks: r.ticks})
			r.base += uint64(len(r.ticks))
			r.ticks = nil
		}
	}
	return batch, evs
}

// compareBatch requires a snapshot to equal the reference bit for bit,
// with every row capped at its width so the fleet cannot append into a
// neighbouring tick.
func compareBatch(t *testing.T, what string, batch []engine.OfficeBatch, evs []engine.InputEvent, n int,
	wantBatch []engine.OfficeBatch, wantEvs []engine.InputEvent) {
	t.Helper()
	if len(batch) != len(wantBatch) || len(evs) != len(wantEvs) {
		t.Fatalf("%s: %d offices, %d events; want %d, %d", what, len(batch), len(evs), len(wantBatch), len(wantEvs))
	}
	for i, ev := range evs {
		if ev != wantEvs[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", what, i, ev, wantEvs[i])
		}
	}
	total := 0
	for i, ob := range batch {
		want := wantBatch[i]
		if ob.Office != want.Office || len(ob.Ticks) != len(want.Ticks) {
			t.Fatalf("%s: batch %d is office %d with %d ticks, want office %d with %d",
				what, i, ob.Office, len(ob.Ticks), want.Office, len(want.Ticks))
		}
		total += len(ob.Ticks)
		for j, row := range ob.Ticks {
			if len(row) != len(want.Ticks[j]) || cap(row) != len(row) {
				t.Fatalf("%s: office %d tick %d has len %d cap %d, want len and cap %d",
					what, ob.Office, j, len(row), cap(row), len(want.Ticks[j]))
			}
			for k, v := range row {
				if math.Float64bits(v) != math.Float64bits(want.Ticks[j][k]) {
					t.Fatalf("%s: office %d tick %d sample %d = %x, want %x",
						what, ob.Office, j, k, math.Float64bits(v), math.Float64bits(want.Ticks[j][k]))
				}
			}
		}
	}
	if n != total {
		t.Fatalf("%s: n = %d, want %d", what, n, total)
	}
}

// checkRetained holds an office to its memory bound right after a batch
// of n ticks came back: nothing stays lent, the row headers and idle
// arenas fit in 4× the batch, and every arena is under 2 × Queue × width
// samples.
func checkRetained(t *testing.T, q *officeQueue, n, queue int) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.width
	idle := cap(q.spare)
	if len(q.samples) == 0 {
		idle += cap(q.samples)
	}
	switch {
	case q.lent != nil:
		t.Fatalf("arena still lent after recycle")
	case cap(q.rows) > 4*n:
		t.Fatalf("%d row headers kept after a %d-tick batch", cap(q.rows), n)
	case idle > 4*n*w:
		t.Fatalf("%d idle samples kept after a %d-tick batch of width %d", idle, n, w)
	case cap(q.samples) >= 2*queue*w || cap(q.spare) >= 2*queue*w:
		t.Fatalf("arenas of %d and %d samples, want < 2 × %d × %d", cap(q.samples), cap(q.spare), queue, w)
	}
	for _, row := range q.rows[:cap(q.rows)] {
		if row != nil {
			t.Fatalf("row header kept after recycle")
		}
	}
}
