package stream

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/rng"
	"fadewich/internal/wire"
)

// testFleet builds a small fleet whose timeout backstop guarantees
// actions without a trained classifier (same shape as the engine tests).
func testFleet(t testing.TB, offices, workers int) *engine.Fleet {
	t.Helper()
	f, err := engine.NewFleet(engine.FleetConfig{
		Offices: offices,
		Workers: workers,
		System: core.Config{
			Streams:      2,
			Workstations: 1,
			Params:       control.Params{TimeoutSec: 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// scenario builds a deterministic workload: per-office quiet RSSI ticks
// and one staggered login per office, so timeout deauthentications land
// at distinct office-dependent times.
func scenario(offices, ticks int) (batch [][][]float64, inputs []engine.InputEvent) {
	batch = make([][][]float64, offices)
	for o := 0; o < offices; o++ {
		src := rng.New(uint64(o) + 1)
		days := make([][]float64, ticks)
		for t := range days {
			days[t] = []float64{-60 + src.Normal(0, 0.4), -58 + src.Normal(0, 0.4)}
		}
		batch[o] = days
		inputs = append(inputs, engine.InputEvent{Office: o, Workstation: 0, Tick: o % 17})
	}
	return batch, inputs
}

// window slices the scenario into [start, end) for every office, with
// the window's events re-based to the window start.
func window(batch [][][]float64, inputs []engine.InputEvent, start, end int) ([][][]float64, []engine.InputEvent) {
	sub := make([][][]float64, len(batch))
	for o := range batch {
		sub[o] = batch[o][start:end]
	}
	var evs []engine.InputEvent
	for _, ev := range inputs {
		if ev.Tick >= start && ev.Tick < end {
			ev.Tick -= start
			evs = append(evs, ev)
		}
	}
	return sub, evs
}

// officeBatches addresses sub[i] to office ID i: the test fleets see no
// churn, so office IDs equal positions.
func officeBatches(sub [][][]float64) []engine.OfficeBatch {
	obs := make([]engine.OfficeBatch, len(sub))
	for i := range sub {
		obs[i] = engine.OfficeBatch{Office: i, Ticks: sub[i]}
	}
	return obs
}

// pushWindow feeds one window through the ingestor's Push and PushInput
// in the order Fleet.Run delivers the same batch: per office, its events
// stable-sorted by Tick, each before the tick it names, and the rest
// after the office's last tick.
func pushWindow(t *testing.T, in *Ingestor, sub [][][]float64, evs []engine.InputEvent) {
	t.Helper()
	for o, ticks := range sub {
		var own []engine.InputEvent
		for _, ev := range evs {
			if ev.Office == o {
				own = append(own, ev)
			}
		}
		slices.SortStableFunc(own, func(a, b engine.InputEvent) int { return a.Tick - b.Tick })
		for tk, row := range ticks {
			for len(own) > 0 && own[0].Tick <= tk {
				if err := in.PushInput(o, own[0].Workstation); err != nil {
					t.Fatal(err)
				}
				own = own[1:]
			}
			if err := in.Push(o, row); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range own {
			if err := in.PushInput(o, ev.Workstation); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIngestorMatchesSynchronousFleet is the acceptance check: with a
// RingSink attached, a 64-office fleet driven through the Ingestor
// (Flush at the same boundaries) produces a sink stream byte-identical
// to the synchronous Fleet.Run action stream for the same seed.
func TestIngestorMatchesSynchronousFleet(t *testing.T) {
	const offices, ticks, windowTicks = 64, 260, 77
	batch, inputs := scenario(offices, ticks)

	// Synchronous reference stream.
	syncFleet := testFleet(t, offices, 4)
	var want []engine.OfficeAction
	for start := 0; start < ticks; start += windowTicks {
		end := min(start+windowTicks, ticks)
		sub, evs := window(batch, inputs, start, end)
		acts, err := syncFleet.Run(officeBatches(sub), evs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, acts...)
	}
	if len(want) == 0 {
		t.Fatal("scenario produced no actions; the comparison is vacuous")
	}

	// Asynchronous stream through the Ingestor into a RingSink.
	ring := NewRingSink(4096)
	in, err := NewIngestor(testFleet(t, offices, 4), Config{Queue: windowTicks, Sink: ring})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < ticks; start += windowTicks {
		end := min(start+windowTicks, ticks)
		sub, evs := window(batch, inputs, start, end)
		pushWindow(t, in, sub, evs)
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	got := ring.Actions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sink stream differs from synchronous stream: %d vs %d actions", len(got), len(want))
	}
	if !bytes.Equal(wire.AppendJSONL(nil, got), wire.AppendJSONL(nil, want)) {
		t.Fatal("sink stream wire encoding is not byte-identical to the synchronous stream")
	}
	st := in.Stats()
	if st.Dropped != 0 {
		t.Fatalf("lossless run dropped %d ticks", st.Dropped)
	}
	if int(st.Actions) != len(want) {
		t.Fatalf("stats count %d actions, stream has %d", st.Actions, len(want))
	}
}

func TestIngestorBlockPolicyIsLossless(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 2), Config{Queue: 4, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	row := []float64{-60, -58}
	for i := 0; i < 50; i++ {
		if err := in.Push(0, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	o := st.Offices[0]
	if o.Pushed != 50 || o.Dispatched != 50 || o.Dropped != 0 || o.Depth != 0 {
		t.Fatalf("block policy stats: %+v", o)
	}
}

func TestIngestorDropOldestEvicts(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 1), Config{Queue: 4, OnFull: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	row := []float64{-60, -58}
	for i := 0; i < 10; i++ {
		if err := in.Push(0, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	o := st.Offices[0]
	if o.Dropped != 6 || o.Dispatched != 4 || o.Pushed != 10 {
		t.Fatalf("drop-oldest stats: %+v", o)
	}
}

func TestIngestorErrorOnFullRejects(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 1), Config{Queue: 2, OnFull: ErrorOnFull})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	row := []float64{-60, -58}
	for i := 0; i < 2; i++ {
		if err := in.Push(0, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Push(0, row); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull push returned %v, want ErrQueueFull", err)
	}
	if st := in.Stats(); st.Offices[0].Dropped != 1 || st.Offices[0].Depth != 2 {
		t.Fatalf("error-on-full stats: %+v", st.Offices[0])
	}
}

func TestIngestorInputDelivery(t *testing.T) {
	f := testFleet(t, 2, 1)
	in, err := NewIngestor(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.PushInput(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(0, []float64{-60, -58}); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(1, []float64{-60, -58}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.System(0).Authenticated(0) || !f.System(1).Authenticated(0) {
		t.Fatal("input routed to the wrong office")
	}
}

func TestIngestorValidation(t *testing.T) {
	if _, err := NewIngestor(nil, Config{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	if _, err := NewIngestor(testFleet(t, 1, 1), Config{Queue: -1}); err == nil {
		t.Fatal("negative queue accepted")
	}
	in, err := NewIngestor(testFleet(t, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.Push(5, []float64{-60, -58}); err == nil {
		t.Fatal("out-of-range office accepted")
	}
	if err := in.PushInput(-1, 0); err == nil {
		t.Fatal("out-of-range input office accepted")
	}
}

func TestIngestorCloseIsIdempotentAndFinal(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Push(0, []float64{-60, -58}); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := in.Push(0, []float64{-60, -58}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close returned %v, want ErrClosed", err)
	}
	if err := in.PushInput(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("push-input after close returned %v, want ErrClosed", err)
	}
	if err := in.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close returned %v, want ErrClosed", err)
	}
	// The pre-close tick was still dispatched (flush-on-close).
	if st := in.Stats(); st.Offices[0].Dispatched != 1 {
		t.Fatalf("close did not drain the queue: %+v", st.Offices[0])
	}
}

func TestIngestorOnBatchTapSeesFullStream(t *testing.T) {
	const offices, ticks, windowTicks = 8, 200, 50
	batch, inputs := scenario(offices, ticks)
	ring := NewRingSink(2048)
	var tapped []engine.OfficeAction
	in, err := NewIngestor(testFleet(t, offices, 2), Config{
		Sink:    ring,
		OnBatch: func(acts []engine.OfficeAction) { tapped = append(tapped, acts...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < ticks; start += windowTicks {
		sub, evs := window(batch, inputs, start, min(start+windowTicks, ticks))
		pushWindow(t, in, sub, evs)
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tapped) == 0 {
		t.Fatal("tap saw no actions")
	}
	if !reflect.DeepEqual(tapped, ring.Actions()) {
		t.Fatalf("tap stream (%d actions) differs from sink stream (%d)", len(tapped), ring.Len())
	}
}

// TestIngestorStaysCallerDriven pins the dispatch contract: without a
// Flush (and with room left in the queue), queued ticks wait
// indefinitely.
func TestIngestorStaysCallerDriven(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.Push(0, []float64{-60, -58}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if got := in.Stats().Offices[0].Dispatched; got != 0 {
		t.Fatalf("tick dispatched without a flush: %d", got)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := in.Stats().Offices[0].Dispatched; got != 1 {
		t.Fatalf("flush did not dispatch the tick: %d", got)
	}
}

// TestIngestorBackpressureContentMatchesSynchronous: Block backpressure
// puts batch boundaries wherever the scheduler lets the dispatcher in,
// but never changes content — a single-office stream pushed with no
// Flush must come out identical to the synchronous fleet run however
// the batches fell.
func TestIngestorBackpressureContentMatchesSynchronous(t *testing.T) {
	const ticks = 400
	batch, inputs := scenario(1, ticks)

	syncFleet := testFleet(t, 1, 1)
	want, err := syncFleet.Run(officeBatches(batch), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("scenario produced no actions; the comparison is vacuous")
	}

	ring := NewRingSink(4096)
	in, err := NewIngestor(testFleet(t, 1, 1), Config{Queue: 4, OnFull: Block, Sink: ring})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for tIdx := 0; tIdx < ticks; tIdx++ {
		for next < len(inputs) && inputs[next].Tick <= tIdx {
			if err := in.PushInput(inputs[next].Office, inputs[next].Workstation); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := in.Push(0, batch[0][tIdx]); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := in.Stats().Batches; got < 2 {
		t.Fatalf("%d batches: backpressure never dispatched before Close", got)
	}
	if got := ring.Actions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("backpressure stream differs from synchronous: %d vs %d actions", len(got), len(want))
	}
}

// TestIngestorAddOfficeJoinsClean checks that a tenant added through the
// ingestor gets a fresh queue and a clean System, and participates from
// the next dispatch on.
func TestIngestorAddOfficeJoinsClean(t *testing.T) {
	f := testFleet(t, 1, 2)
	in, err := NewIngestor(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	id, err := in.AddOffice(core.Config{
		Streams:      3,
		Workstations: 1,
		Params:       control.Params{TimeoutSec: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("joiner ID %d, want 1", id)
	}
	if sys := f.System(id); sys == nil || sys.Now() != 0 || sys.Phase() != core.PhaseTraining {
		t.Fatal("joiner did not start clean")
	}
	if err := in.PushInput(id, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := in.Push(id, []float64{-60, -58, -61}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := f.System(id).Now(); got != 2.0 {
		t.Fatalf("joiner clock %.1f after 10 ticks, want 2.0", got)
	}
	st := in.Stats()
	if len(st.Offices) != 2 || st.Offices[1].Office != id || st.Offices[1].Dispatched != 10 {
		t.Fatalf("joiner missing from stats: %+v", st.Offices)
	}
}

// TestIngestorRemoveOfficeDrainsQueuedTicks is the drain contract: the
// removed office's already-queued ticks are dispatched as its final
// flush, and the actions they produce are exactly the actions the same
// ticks produce on a standalone System — nothing lost, nothing extra.
func TestIngestorRemoveOfficeDrainsQueuedTicks(t *testing.T) {
	const offices, ticks = 2, 170 // timeout backstop fires at tick 150
	batch, _ := scenario(offices, ticks)

	var tapped []engine.OfficeAction
	f := testFleet(t, offices, 2)
	in, err := NewIngestor(f, Config{
		Queue:   ticks + 8,
		OnBatch: func(acts []engine.OfficeAction) { tapped = append(tapped, acts...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Queue a login plus the whole day for office 1 WITHOUT flushing, then
	// remove it: the drain must dispatch every queued tick.
	if err := in.PushInput(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, row := range batch[1] {
		if err := in.Push(1, row); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := in.RemoveOffice(1)
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil || sys.Now() != float64(ticks)*0.2 {
		t.Fatal("removal did not drain the queued ticks into the System")
	}

	// Reference: the same ticks on a standalone System.
	refSys, err := core.NewSystem(core.Config{
		Streams:      2,
		Workstations: 1,
		Params:       control.Params{TimeoutSec: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	refSys.NotifyInput(0)
	var want []engine.OfficeAction
	for _, row := range batch[1] {
		for _, a := range refSys.Tick(row) {
			want = append(want, engine.OfficeAction{Office: 1, Action: a})
		}
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no actions; the drain check is vacuous")
	}
	if !reflect.DeepEqual(tapped, want) {
		t.Fatalf("final flush emitted %d actions, reference has %d (or contents differ)", len(tapped), len(want))
	}

	// The office is gone: pushes fail, stats moved to the retired totals.
	if err := in.Push(1, batch[1][0]); !errors.Is(err, ErrUnknownOffice) {
		t.Fatalf("push to removed office returned %v, want ErrUnknownOffice", err)
	}
	if _, err := in.RemoveOffice(1); !errors.Is(err, ErrUnknownOffice) {
		t.Fatalf("double removal returned %v, want ErrUnknownOffice", err)
	}
	st := in.Stats()
	if len(st.Offices) != 1 || st.Offices[0].Office != 0 {
		t.Fatalf("stats still list the removed office: %+v", st.Offices)
	}
	if st.Retired.Pushed != ticks || st.Retired.Dispatched != ticks || st.Retired.Dropped != 0 {
		t.Fatalf("retired totals: %+v", st.Retired)
	}
	if f.Offices() != 1 {
		t.Fatalf("fleet still has %d offices", f.Offices())
	}
}

// TestPushRejectsWrongWidth checks that a tick whose sample count is not
// the office's stream count is refused with ErrTickWidth before it is
// queued (a queued one would panic the dispatcher inside core.System.Tick),
// for a founding office and a joiner alike, and that the ingestor keeps
// dispatching afterwards.
func TestPushRejectsWrongWidth(t *testing.T) {
	in, err := NewIngestor(testFleet(t, 1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	joiner, err := in.AddOffice(core.Config{}) // inherits the 2-stream default
	if err != nil {
		t.Fatal(err)
	}
	for _, office := range []int{0, joiner} {
		for _, rssi := range [][]float64{{-60, -61, -62}, {-60}, nil} {
			err := in.Push(office, rssi)
			if !errors.Is(err, ErrTickWidth) {
				t.Fatalf("office %d, %d samples: Push returned %v, want ErrTickWidth", office, len(rssi), err)
			}
			if want := fmt.Sprintf("got %d samples, want 2", len(rssi)); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not carry %q", err, want)
			}
		}
		if err := in.Push(office, []float64{-60, -61}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	tot := st.Totals()
	if tot.Pushed != 2 || tot.Dispatched != 2 || tot.Dropped != 0 || st.Batches != 1 {
		t.Fatalf("after rejections: %+v, %d batches; want 2 pushed and dispatched, 0 dropped, 1 batch", tot, st.Batches)
	}
}

// TestIngestorChurnUnderLoad is the elastic acceptance test: 64 offices
// stream ticks from concurrent producers while 16 membership events
// (8 joins, 8 removals) land mid-run, and every dispatched batch of the
// merged stream must stay totally ordered by (time, office). CI repeats
// this package under -race.
func TestIngestorChurnUnderLoad(t *testing.T) {
	const (
		offices   = 64
		perOffice = 150
		events    = 16
	)
	var (
		orderMu  sync.Mutex
		orderErr error
	)
	checkOrder := func(acts []engine.OfficeAction) {
		for i := 1; i < len(acts); i++ {
			a, b := acts[i-1], acts[i]
			if b.Action.Time < a.Action.Time ||
				(b.Action.Time == a.Action.Time && b.Office < a.Office) {
				orderMu.Lock()
				if orderErr == nil {
					orderErr = errors.New("merged batch out of order across churn")
				}
				orderMu.Unlock()
				return
			}
		}
	}
	in, err := NewIngestor(testFleet(t, offices, 4), Config{
		Queue:   32,
		OnFull:  Block,
		OnBatch: checkOrder,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for o := 0; o < offices; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			src := rng.New(uint64(o) + 9)
			if err := in.PushInput(o, 0); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perOffice; i++ {
				if err := in.Push(o, []float64{-60 + src.Normal(0, 0.4), -58}); err != nil {
					t.Error(err)
					return
				}
			}
		}(o)
	}

	// Churner: joins a heterogeneous tenant, streams a short burst into
	// it, then removes it — 8 times, concurrently with the producers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		joinCfg := core.Config{Streams: 3, Workstations: 2, Params: control.Params{TimeoutSec: 15}}
		for ev := 0; ev < events/2; ev++ {
			id, err := in.AddOffice(joinCfg)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if err := in.Push(id, []float64{-61, -59, -60}); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := in.RemoveOffice(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	orderMu.Lock()
	defer orderMu.Unlock()
	if orderErr != nil {
		t.Fatal(orderErr)
	}
	st := in.Stats()
	if len(st.Offices) != offices {
		t.Fatalf("%d offices left after churn, want %d", len(st.Offices), offices)
	}
	for _, os := range st.Offices {
		if os.Dispatched != perOffice || os.Dropped != 0 {
			t.Fatalf("office %d lost ticks across churn: %+v", os.Office, os)
		}
	}
	if st.Retired.Pushed != events/2*20 || st.Retired.Dispatched != st.Retired.Pushed {
		t.Fatalf("retired totals after churn: %+v", st.Retired)
	}
}

// TestIngestorConcurrentProducers exercises the queues under -race: one
// producer per office plus a concurrent flusher.
func TestIngestorConcurrentProducers(t *testing.T) {
	const offices, perOffice = 4, 200
	in, err := NewIngestor(testFleet(t, offices, 2), Config{Queue: 16, OnFull: Block})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for o := 0; o < offices; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			src := rng.New(uint64(o) + 9)
			for i := 0; i < perOffice; i++ {
				if err := in.Push(o, []float64{-60 + src.Normal(0, 0.4), -58}); err != nil {
					t.Error(err)
					return
				}
			}
		}(o)
	}
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	for o, os := range st.Offices {
		if os.Dispatched != perOffice || os.Dropped != 0 {
			t.Fatalf("office %d: %+v", o, os)
		}
	}
}
