package engine

import (
	"reflect"
	"strings"
	"testing"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/rng"
)

// fleetCfg is a small office System whose timeout backstop guarantees
// actions without needing a trained classifier.
func fleetCfg(offices, workers int) FleetConfig {
	return FleetConfig{
		Offices: offices,
		Workers: workers,
		System: core.Config{
			Streams:      2,
			Workstations: 1,
			Params:       control.Params{TimeoutSec: 30},
		},
	}
}

// fleetScenario builds a deterministic 64-office workload: per-office
// quiet RSSI ticks and one staggered login per office, so the timeout
// deauthentications land at distinct, office-dependent times.
func fleetScenario(offices, ticks int) (batch [][][]float64, inputs []InputEvent) {
	batch = make([][][]float64, offices)
	for o := 0; o < offices; o++ {
		src := rng.New(uint64(o) + 1)
		days := make([][]float64, ticks)
		for t := range days {
			days[t] = []float64{-60 + src.Normal(0, 0.4), -58 + src.Normal(0, 0.4)}
		}
		batch[o] = days
		inputs = append(inputs, InputEvent{Office: o, Workstation: 0, Tick: o % 17})
	}
	return batch, inputs
}

// officeBatches addresses ticks[i] to office ID i: the batch layout of a
// fleet that has seen no churn.
func officeBatches(ticks [][][]float64) []OfficeBatch {
	obs := make([]OfficeBatch, len(ticks))
	for i, t := range ticks {
		obs[i] = OfficeBatch{Office: i, Ticks: t}
	}
	return obs
}

// runFleet drives one scenario through a fleet with the given worker
// count and returns the merged action stream.
func runFleet(t *testing.T, offices, workers, ticks int) []OfficeAction {
	t.Helper()
	f, err := NewFleet(fleetCfg(offices, workers))
	if err != nil {
		t.Fatal(err)
	}
	batch, inputs := fleetScenario(offices, ticks)
	// Split the scenario into several batches to exercise batch-boundary
	// state carry-over.
	const batchTicks = 77
	var out []OfficeAction
	for start := 0; start < ticks; start += batchTicks {
		end := start + batchTicks
		if end > ticks {
			end = ticks
		}
		sub := make([][][]float64, offices)
		for o := range sub {
			sub[o] = batch[o][start:end]
		}
		var evs []InputEvent
		for _, ev := range inputs {
			if ev.Tick >= start && ev.Tick < end {
				ev.Tick -= start
				evs = append(evs, ev)
			}
		}
		acts, err := f.Run(officeBatches(sub), evs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, acts...)
	}
	return out
}

func TestFleet64OfficesDeterministicAcrossWorkerCounts(t *testing.T) {
	const offices, ticks = 64, 260
	want := runFleet(t, offices, 1, ticks)
	if len(want) == 0 {
		t.Fatal("scenario produced no actions; the determinism check is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got := runFleet(t, offices, workers, ticks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged stream differs from sequential (%d vs %d actions)",
				workers, len(got), len(want))
		}
	}
}

func TestFleetMatchesIndependentSystems(t *testing.T) {
	const offices, ticks = 16, 220
	got := runFleet(t, offices, 8, ticks)

	// Reference: drive each office as a standalone System in a plain loop.
	batch, inputs := fleetScenario(offices, ticks)
	var want []OfficeAction
	for o := 0; o < offices; o++ {
		sys, err := core.NewSystem(fleetCfg(offices, 1).System)
		if err != nil {
			t.Fatal(err)
		}
		inputTick := -1
		for _, ev := range inputs {
			if ev.Office == o {
				inputTick = ev.Tick
			}
		}
		for tk := 0; tk < ticks; tk++ {
			if tk == inputTick {
				sys.NotifyInput(0)
			}
			for _, a := range sys.Tick(batch[o][tk]) {
				want = append(want, OfficeAction{Office: o, Action: a})
			}
		}
	}
	want = sortReference(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet stream differs from independent systems: %d vs %d actions", len(got), len(want))
	}
}

// sortReference applies the fleet's documented total order to a reference
// action list.
func sortReference(acts []OfficeAction) []OfficeAction {
	out := make([]OfficeAction, len(acts))
	copy(out, acts)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Action.Time < a.Action.Time || (b.Action.Time == a.Action.Time && b.Office < a.Office) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

func TestFleetMergedStreamIsTimeOrdered(t *testing.T) {
	acts := runFleet(t, 64, 4, 260)
	for i := 1; i < len(acts); i++ {
		a, b := acts[i-1], acts[i]
		if b.Action.Time < a.Action.Time {
			t.Fatalf("action %d at %.2fs precedes %d at %.2fs", i, b.Action.Time, i-1, a.Action.Time)
		}
		if b.Action.Time == a.Action.Time && b.Office < a.Office {
			t.Fatalf("tie at %.2fs breaks office order: %d before %d", a.Action.Time, a.Office, b.Office)
		}
	}
}

// TestFleetRetainedBatchNeverMutated is the regression test for the
// per-office buffer reuse: a caller (or action sink) retaining a previous
// batch's []OfficeAction must never see it change as later batches run,
// even though the fleet reuses its internal accumulation buffers.
func TestFleetRetainedBatchNeverMutated(t *testing.T) {
	const offices, ticks = 16, 240
	f, err := NewFleet(fleetCfg(offices, 4))
	if err != nil {
		t.Fatal(err)
	}
	batch, inputs := fleetScenario(offices, ticks)

	// Retain every batch's stream and an immediate deep copy of it.
	var retained [][]OfficeAction
	var snapshots [][]OfficeAction
	const batchTicks = 60
	for start := 0; start < ticks; start += batchTicks {
		end := start + batchTicks
		if end > ticks {
			end = ticks
		}
		sub := make([][][]float64, offices)
		for o := range sub {
			sub[o] = batch[o][start:end]
		}
		var evs []InputEvent
		for _, ev := range inputs {
			if ev.Tick >= start && ev.Tick < end {
				ev.Tick -= start
				evs = append(evs, ev)
			}
		}
		acts, err := f.Run(officeBatches(sub), evs)
		if err != nil {
			t.Fatal(err)
		}
		retained = append(retained, acts)
		snapshots = append(snapshots, append([]OfficeAction(nil), acts...))
	}

	total := 0
	for _, acts := range retained {
		total += len(acts)
	}
	if total == 0 {
		t.Fatal("scenario produced no actions; the aliasing check is vacuous")
	}
	for i := range retained {
		if !reflect.DeepEqual(retained[i], snapshots[i]) {
			t.Fatalf("batch %d's retained stream was mutated by a later batch", i)
		}
	}
}

func TestFleetInputRouting(t *testing.T) {
	f, err := NewFleet(fleetCfg(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(nil, []InputEvent{{Office: 1, Workstation: 0}}); err != nil {
		t.Fatal(err)
	}
	if f.System(0).Authenticated(0) || !f.System(1).Authenticated(0) || f.System(2).Authenticated(0) {
		t.Fatal("input event routed to the wrong office")
	}
}

func TestFleetRunInputValidation(t *testing.T) {
	f, err := NewFleet(fleetCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	batch := [][][]float64{{{-60, -60}}, {{-60, -60}}}
	if _, err := f.Run(officeBatches(batch), []InputEvent{{Office: 5}}); err == nil {
		t.Fatal("out-of-range input office accepted")
	}
}

func TestFleetTickSingle(t *testing.T) {
	f, err := NewFleet(fleetCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(officeBatches([][][]float64{{{-60, -60}}, {{-61, -59}}}), nil); err != nil {
		t.Fatal(err)
	}
	if got := f.System(0).Now(); got != 0.2 {
		t.Fatalf("office 0 clock %.2f after one tick, want 0.2", got)
	}
}

func TestFleetFinishTrainingReportsFirstFailingOffice(t *testing.T) {
	f, err := NewFleet(fleetCfg(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	err = f.FinishTraining()
	if err == nil {
		t.Fatal("training with zero samples succeeded")
	}
	if !strings.Contains(err.Error(), "office 0") {
		t.Fatalf("error %q does not name office 0", err)
	}
	if f.TrainingSamples() != 0 {
		t.Fatalf("phantom training samples: %d", f.TrainingSamples())
	}
}

// standaloneActions drives a fresh System through the given ticks (one
// login at inputTick) and returns its actions tagged with the office ID.
func standaloneActions(t *testing.T, cfg core.Config, office int, ticks [][]float64, inputTick int) []OfficeAction {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []OfficeAction
	for tk := range ticks {
		if tk == inputTick {
			sys.NotifyInput(0)
		}
		for _, a := range sys.Tick(ticks[tk]) {
			out = append(out, OfficeAction{Office: office, Action: a})
		}
	}
	return out
}

// TestFleetPerOfficeConfigsHeterogeneous builds a fleet whose offices
// differ in stream count, workstation count and control timings, and
// checks that office 0 — configured exactly like a standalone deployment
// — reproduces the standalone System's action stream byte for byte.
func TestFleetPerOfficeConfigsHeterogeneous(t *testing.T) {
	const ticks = 260
	def := fleetCfg(3, 2).System
	cfgWide := core.Config{Streams: 4, Workstations: 2, Params: control.Params{TimeoutSec: 20}}
	cfgSlow := core.Config{Streams: 2, Workstations: 1, Params: control.Params{TimeoutSec: 45}}
	f, err := NewFleet(FleetConfig{
		Offices: 3,
		Workers: 4,
		System:  def,
		PerOffice: map[int]core.Config{
			1: cfgWide,
			2: cfgSlow,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]int{0: 2, 1: 4, 2: 2} {
		cfg, ok := f.Config(id)
		if !ok || cfg.Streams != want {
			t.Fatalf("office %d config: streams %d (member %v), want %d", id, cfg.Streams, ok, want)
		}
	}

	// Per-office tick rows sized to each office's stream count.
	rows := func(office, streams int) [][]float64 {
		src := rng.New(uint64(office) + 1)
		out := make([][]float64, ticks)
		for t := range out {
			row := make([]float64, streams)
			for k := range row {
				row[k] = -60 + src.Normal(0, 0.4)
			}
			out[t] = row
		}
		return out
	}
	tick0, tick1, tick2 := rows(0, 2), rows(1, 4), rows(2, 2)

	var merged []OfficeAction
	const batchTicks = 77
	for start := 0; start < ticks; start += batchTicks {
		end := start + batchTicks
		if end > ticks {
			end = ticks
		}
		var evs []InputEvent
		for o := 0; o < 3; o++ {
			if tk := o * 3; tk >= start && tk < end {
				evs = append(evs, InputEvent{Office: o, Workstation: 0, Tick: tk - start})
			}
		}
		acts, err := f.Run([]OfficeBatch{
			{Office: 0, Ticks: tick0[start:end]},
			{Office: 1, Ticks: tick1[start:end]},
			{Office: 2, Ticks: tick2[start:end]},
		}, evs)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, acts...)
	}

	var office0 []OfficeAction
	for _, a := range merged {
		if a.Office == 0 {
			office0 = append(office0, a)
		}
	}
	want := standaloneActions(t, def, 0, tick0, 0)
	if len(want) == 0 {
		t.Fatal("standalone run produced no actions; the comparison is vacuous")
	}
	if !reflect.DeepEqual(office0, want) {
		t.Fatalf("office 0 of the heterogeneous fleet diverged from the standalone run: %d vs %d actions",
			len(office0), len(want))
	}
}

// TestFleetMembershipLifecycle checks the sequential add/remove contract:
// monotonic never-reused IDs, joiners starting clean, removal returning
// the final System, and batch delivery across non-contiguous IDs.
func TestFleetMembershipLifecycle(t *testing.T) {
	f, err := NewFleet(fleetCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{-60, -58}
	if _, err := f.Run([]OfficeBatch{{Office: 0, Ticks: [][]float64{row}}, {Office: 1, Ticks: [][]float64{row}}}, nil); err != nil {
		t.Fatal(err)
	}

	// Join with the default config (zero Streams inherits).
	id, err := f.AddOffice(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("joiner ID %d, want 2", id)
	}
	if sys := f.System(id); sys == nil || sys.Phase() != core.PhaseTraining || sys.Now() != 0 {
		t.Fatal("joiner did not start clean in the training phase")
	}
	if got := f.Offices(); got != 3 {
		t.Fatalf("fleet size %d after join, want 3", got)
	}

	// Remove the middle office; the fleet keeps serving 0 and 2.
	sys, err := f.RemoveOffice(1)
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil || sys.Now() != 0.2 {
		t.Fatal("removal did not hand back the final System")
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("IDs after removal: %v, want [0 2]", got)
	}
	if _, err := f.RemoveOffice(1); err == nil {
		t.Fatal("double removal accepted")
	}
	if f.System(1) != nil {
		t.Fatal("removed office still reachable")
	}

	// Delivery addresses the surviving, non-contiguous IDs.
	if _, err := f.Run([]OfficeBatch{
		{Office: 0, Ticks: [][]float64{row}},
		{Office: 2, Ticks: [][]float64{row}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.System(2).Now(); got != 0.2 {
		t.Fatalf("joiner clock %.1f after one batch, want 0.2", got)
	}

	// A later join must not reuse the retired ID.
	id2, err := f.AddOffice(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 3 {
		t.Fatalf("second joiner ID %d, want 3 (ID 1 must never be reused)", id2)
	}
}

func TestFleetRunValidation(t *testing.T) {
	f, err := NewFleet(fleetCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	row := [][]float64{{-60, -58}}
	if _, err := f.Run([]OfficeBatch{{Office: 7, Ticks: row}}, nil); err == nil {
		t.Fatal("unknown office accepted")
	}
	if _, err := f.Run([]OfficeBatch{{Office: 0, Ticks: row}, {Office: 0, Ticks: row}}, nil); err == nil {
		t.Fatal("duplicate batch entry accepted")
	}
	if _, err := f.Run(nil, []InputEvent{{Office: 9}}); err == nil {
		t.Fatal("input event for unknown office accepted")
	}
	// An input event for an office without a batch entry is delivered.
	if _, err := f.Run([]OfficeBatch{{Office: 0, Ticks: row}}, []InputEvent{{Office: 1, Workstation: 0}}); err != nil {
		t.Fatal(err)
	}
	if !f.System(1).Authenticated(0) {
		t.Fatal("batch-less input event was not delivered")
	}
}

// TestFleetChurnUnderLoad drives a 64-office fleet through a stream of
// batches while a concurrent churner performs 16 membership events
// (adding heterogeneous joiners, then removing them). Every batch's
// merged stream must stay totally ordered by (time, office), and the
// fleet must end exactly where it started. CI repeats this package under
// -race, which is the real assertion on the membership locking.
func TestFleetChurnUnderLoad(t *testing.T) {
	const (
		offices   = 64
		batches   = 80
		perBatch  = 5
		churnEach = 5 // one membership event every 5 batches -> 16 events
	)
	// Heterogeneous base fleet: every fourth office runs a wider config.
	cfg := fleetCfg(offices, 4)
	cfg.PerOffice = map[int]core.Config{}
	for o := 0; o < offices; o += 4 {
		cfg.PerOffice[o] = core.Config{Streams: 4, Workstations: 2, Params: control.Params{TimeoutSec: 25}}
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	batchDone := make(chan struct{}, batches)
	churnDone := make(chan error, 1)
	go func() {
		joinCfg := core.Config{Streams: 3, Workstations: 2, Params: control.Params{TimeoutSec: 15}}
		var joined []int
		for ev := 0; ev < 16; ev++ {
			for i := 0; i < churnEach; i++ {
				if _, ok := <-batchDone; !ok {
					churnDone <- nil
					return
				}
			}
			if ev%2 == 0 {
				id, err := f.AddOffice(joinCfg)
				if err != nil {
					churnDone <- err
					return
				}
				joined = append(joined, id)
			} else {
				id := joined[0]
				joined = joined[1:]
				if _, err := f.RemoveOffice(id); err != nil {
					churnDone <- err
					return
				}
			}
		}
		// Drain the remaining joiners so the fleet ends where it started.
		for _, id := range joined {
			if _, err := f.RemoveOffice(id); err != nil {
				churnDone <- err
				return
			}
		}
		churnDone <- nil
	}()

	src := rng.New(99)
	for b := 0; b < batches; b++ {
		// Snapshot-and-retry: a joiner seen by IDs() may be removed before
		// Run acquires the membership lock; membership errors are detected
		// before any office advances, so retrying with a fresh snapshot is
		// safe.
		for {
			ids := f.IDs()
			obs := make([]OfficeBatch, 0, len(ids))
			var evs []InputEvent
			for _, id := range ids {
				cfg, ok := f.Config(id)
				if !ok {
					continue
				}
				ticks := make([][]float64, perBatch)
				for i := range ticks {
					row := make([]float64, cfg.Streams)
					for k := range row {
						row[k] = -60 + src.Normal(0, 0.4)
					}
					ticks[i] = row
				}
				obs = append(obs, OfficeBatch{Office: id, Ticks: ticks})
				if b == 0 {
					evs = append(evs, InputEvent{Office: id, Workstation: 0, Tick: 0})
				}
			}
			acts, err := f.Run(obs, evs)
			if err != nil {
				if strings.Contains(err.Error(), "not a member") {
					continue
				}
				t.Fatal(err)
			}
			for i := 1; i < len(acts); i++ {
				a, bb := acts[i-1], acts[i]
				if bb.Action.Time < a.Action.Time ||
					(bb.Action.Time == a.Action.Time && bb.Office < a.Office) {
					t.Fatalf("batch %d: merged stream out of order at %d", b, i)
				}
			}
			break
		}
		batchDone <- struct{}{}
	}
	close(batchDone)
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}
	if got := f.Offices(); got != offices {
		t.Fatalf("fleet size %d after churn, want %d", got, offices)
	}
	for i, id := range f.IDs() {
		if id != i {
			t.Fatalf("original office IDs disturbed by churn: %v", f.IDs())
		}
	}
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(FleetConfig{Offices: -1}); err == nil {
		t.Fatal("negative office count accepted")
	}
	if _, err := NewFleet(FleetConfig{Offices: 2, System: core.Config{Streams: 0, Workstations: 1}}); err == nil {
		t.Fatal("invalid system config accepted")
	}
}

// TestEmptyFleet pins that a fleet may start member-less (a cluster
// worker whose shard is currently empty): Run produces empty batches,
// and AddOffice later populates it normally.
func TestEmptyFleet(t *testing.T) {
	f, err := NewFleet(FleetConfig{Offices: 0})
	if err != nil {
		t.Fatalf("empty fleet rejected: %v", err)
	}
	if got := f.Offices(); got != 0 {
		t.Fatalf("offices = %d, want 0", got)
	}
	acts, err := f.Run(nil, nil)
	if err != nil || len(acts) != 0 {
		t.Fatalf("empty Run = (%v, %v), want no actions", acts, err)
	}
	id, err := f.AddOffice(fleetCfg(1, 1).System)
	if err != nil {
		t.Fatalf("AddOffice on empty fleet: %v", err)
	}
	if id != 0 {
		t.Fatalf("first office ID %d, want 0", id)
	}
	if got := f.Offices(); got != 1 {
		t.Fatalf("offices = %d after add, want 1", got)
	}
}

func TestFinishTrainingOffice(t *testing.T) {
	f, err := NewFleet(fleetCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FinishTrainingOffice(7); err == nil {
		t.Fatal("non-member office trained")
	}
	err = f.FinishTrainingOffice(1)
	if err == nil {
		t.Fatal("training with zero samples succeeded")
	}
	if !strings.Contains(err.Error(), "office 1") {
		t.Fatalf("error %q does not name office 1", err)
	}
	if f.System(0).Phase() != core.PhaseTraining || f.System(1).Phase() != core.PhaseTraining {
		t.Fatal("failed per-office training changed a phase")
	}
}
