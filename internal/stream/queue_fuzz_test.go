package stream

import (
	"errors"
	"math"
	"testing"

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

// FuzzIngestorQueue drives the flat-arena queues directly (no fleet, no
// dispatcher goroutine) with random sequences of Push, PushInput,
// wrong-width pushes and takeSnapshot+recycleBatch — with and without
// pushes while the batch is out — under DropOldest and ErrorOnFull, for
// offices of different widths. Every snapshot must equal the reference
// queue's rows bit for bit, with the same input tick indices, bases,
// drop counts and depths; the lent rows must survive pushes made while
// the batch is out; and after every recycle an office may keep idle
// arenas of at most 4× its last batch, plus the active arena holding
// the next batch, each under 2 × Queue × width samples.
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
		in := &Ingestor{queue: queue, onFull: policy}
		in.work.L = &in.mu
		in.done.L = &in.mu
		m := &membership{q: make(map[int]*officeQueue)}
		refs := make([]*refQueue, offices)
		for id := range refs {
			w := 1 + int(next()%5)
			m.ids = append(m.ids, id)
			m.q[id] = newOfficeQueue(w)
			refs[id] = &refQueue{width: w}
		}
		in.members.Store(m)

		var stamp uint64
		push := func(b byte) {
			id := int(b>>2) % offices
			r := refs[id]
			row := make([]float64, r.width)
			for k := range row {
				stamp++
				row[k] = math.Float64frombits(stamp*0x9e3779b97f4a7c15 ^ uint64(k))
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
