package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/wire"
)

// TestSmoke runs every workload at smoke scale (8 offices, 2 s), traced,
// and checks that each prints every metric BENCHMARK.json names, in its
// unit, and passes every check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-workload", "all", "-scale", "smoke", "-trace", "1", "-root", root}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	t.Logf("every workload in %v", time.Since(start).Round(time.Second))
	units := map[string]map[string]string{} // workload → metric → unit
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if units[f[0]] == nil {
			units[f[0]] = map[string]string{}
		}
		units[f[0]][f[1]] = f[3]
	}
	if strings.Contains(stdout.String(), "FAILED") {
		t.Fatalf("a check failed:\n%s", stdout.String())
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if lookupWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if got := units[w.Name][m.Name]; got != m.Unit {
				t.Errorf("%s %s printed in %q, want %q", w.Name, m.Name, got, m.Unit)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{9999, 0.999, false, 0},
		{10000, 0.999, true, 9990},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	// tail: the highest percentile with ten samples beyond it.
	if got := tail(seq(500)); got != 490 {
		t.Errorf("tail(500 samples) = %v, want the 11th largest, 490", got)
	}
	if got := tail(seq(5)); got != 5 {
		t.Errorf("tail(5 samples) = %v, want the maximum", got)
	}
}

func TestRequiredPercentileFailsSmallSamples(t *testing.T) {
	r := newResult()
	r.pct(&env{}, "tick_to_action_p999_ms", make([]float64, 9999), 0.999, true)
	if r.Correct {
		t.Fatal("p999 over 9,999 samples was accepted")
	}
	r = newResult()
	r.pct(&env{smoke: true}, "tick_to_action_p999_ms", make([]float64, 50), 0.999, true)
	if !r.Correct || r.Metrics["tick_to_action_p999_ms"].Unit != "ms" {
		t.Fatal("smoke scale must print an unsupported percentile instead of failing")
	}
}

// tapOf builds the tapped stream of the given batches, frame i arriving
// at at[i].
func tapOf(t *testing.T, batches [][]engine.OfficeAction, at []time.Time) *tap {
	t.Helper()
	tp := &tap{}
	for i, b := range batches {
		off := len(tp.raw)
		var err error
		if tp.raw, err = wire.AppendFrame(tp.raw, wire.V1JSONL, b); err != nil {
			t.Fatal(err)
		}
		tp.frames = append(tp.frames, tapFrame{at: at[i], off: off, end: len(tp.raw)})
	}
	return tp
}

// TestMeasureAttributesFramesByFlush checks that every action is timed
// from the due time of the slot whose flush emitted its frame, whatever
// its own clock reads, that training-day frames are skipped, and that a
// stream whose frames do not match the reference's batches is refused.
func TestMeasureAttributesFramesByFlush(t *testing.T) {
	now := time.Now()
	st := &slotTimes{}
	for s := 0; s < 3; s++ {
		due := now.Add(time.Duration(s) * 20 * time.Millisecond)
		st.add(due, due, due.Add(5*time.Millisecond), false)
	}
	act := func(office int, clock float64) engine.OfficeAction {
		return engine.OfficeAction{Office: office, Action: core.Action{Time: clock, Type: core.ActionAlertExit}}
	}
	ref := &reference{
		batches: [][]engine.OfficeAction{
			{act(0, 1), act(1, 2)}, // training day
			{act(0, 10)},
			// An input-triggered alert-exit carries the clock of the tick
			// before the input, which the previous slot carried: it still
			// belongs to the flush that emitted it.
			{act(0, 11), act(1, 12), act(2, 12)},
		},
		slots: []int{-1, 0, 2},
	}
	at := []time.Time{now.Add(-time.Second), now.Add(8 * time.Millisecond), now.Add(49 * time.Millisecond)}
	lat, err := measure(tapOf(t, ref.batches, at), st, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8, 9, 9, 9}
	if len(lat.tickToAction) != len(want) {
		t.Fatalf("latencies %v, want %v", lat.tickToAction, want)
	}
	for i, w := range want {
		if math.Abs(lat.tickToAction[i]-w) > 1e-9 {
			t.Errorf("latency %d = %v ms, want %v", i, lat.tickToAction[i], w)
		}
	}
	if got := lat.slot; got[0] != 0 || got[1] != 2 || got[3] != 2 {
		t.Errorf("sample slots %v, want [0 2 2 2]", got)
	}
	if !lat.arrival[1].IsZero() || !lat.arrival[2].Equal(at[2]) {
		t.Errorf("per-slot arrivals %v", lat.arrival)
	}
	if len(lat.deliver) != 2 || math.Abs(lat.deliver[0]-3) > 1e-9 {
		t.Errorf("deliver %v, want [3 4]", lat.deliver)
	}
	// A stream with a frame the reference never dispatched.
	extra := tapOf(t, append(ref.batches, ref.batches[1]), append(at, now))
	if _, err := measure(extra, st, ref); err == nil {
		t.Error("a stream with more frames than the reference has batches was accepted")
	}
}

func TestPlanPhaseOffsets(t *testing.T) {
	ds := &dataset{dt: 0.2, offices: []officeDays{{online: day{ticks: 100}}, {online: day{ticks: 100}}}}
	p := &plan{ds: ds, offsets: []int{0, 95, 10}, perSlot: 4}
	// Slot 1 carries online ticks 4..7 of every office: office 1 replays
	// them from its offset, wrapping at the end of the day.
	w := p.onlineSlot(1)
	for step, want := range []int{99, 0, 1, 2} {
		if d, got, ok := w.at(1, step); got != want || d != &ds.offices[1].online || !ok {
			t.Errorf("office 1 step %d replays day tick %d of %p, want %d of simulated office 1", step, got, d, want)
		}
	}
	if _, got, _ := w.at(0, 0); got != 4 {
		t.Errorf("office 0 replays day tick %d, want 4", got)
	}
	// Office 2 replays simulated office 0 from its own offset.
	if d, got, _ := w.at(2, 0); got != 14 || d != &ds.offices[0].online {
		t.Errorf("office 2 replays day tick %d of %p, want 14 of simulated office 0", got, d)
	}
}

// TestTrainingStagger checks that office i's training day is
// i mod trainStagger ticks short, so the offices reach the online day
// at every point of the movement detector's batch and refit cycle, and
// that the last training window sends each office only its own ticks.
func TestTrainingStagger(t *testing.T) {
	const trainTicks, trainWindow = 1000, 300
	ds := &dataset{dt: 0.2, trainTicks: trainTicks, offices: []officeDays{{online: day{ticks: 100}}}}
	offices := trainStagger + 2
	p := newPlan(ds, 1, offices, trainWindow, 4)
	phases := map[int]bool{}
	for o, n := range p.train {
		if want := trainTicks - o%trainStagger; n != want {
			t.Errorf("office %d trains on %d ticks, want %d", o, n, want)
		}
		phases[n%trainStagger] = true
	}
	if len(phases) != trainStagger {
		t.Errorf("training lengths cover %d of the %d detector phases", len(phases), trainStagger)
	}
	if p.trainWindows() != 4 {
		t.Fatalf("%d training windows, want 4", p.trainWindows())
	}
	last := p.trainingWindow(3)
	for _, o := range []int{0, 1, trainStagger - 1, trainStagger} {
		sent := 0
		for step := 0; step < last.n; step++ {
			if _, tick, ok := last.at(o, step); ok {
				if tick >= p.train[o] {
					t.Errorf("office %d sent training tick %d of %d", o, tick, p.train[o])
				}
				sent++
			}
		}
		if want := p.train[o] - 3*trainWindow; sent != want {
			t.Errorf("office %d sent %d ticks in the last training window, want %d", o, sent, want)
		}
	}
}

func TestInputTick(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int
	}{
		{0, 0}, {0.1, 0}, {0.2, 0}, {0.2000001, 1}, {0.6, 2}, {0.61, 3},
	} {
		if got := inputTick(c.x, 0.2); got != c.want {
			t.Errorf("inputTick(%v) = %d, want %d (first t with x <= (t+1)·dt)", c.x, got, c.want)
		}
	}
}

// TestStallRaisesLatency injects a stall into the open loop: the slots
// due during it are sent late, so their latency — timed from the due
// time, not the send — and the generator's lag both rise.
func TestStallRaisesLatency(t *testing.T) {
	const (
		slot    = 10 * time.Millisecond
		slots   = 30
		stallAt = 5
		stall   = 120 * time.Millisecond
	)
	st := drive(context.Background(), slot, slots, func(s int) error {
		if s == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if st.n() != slots {
		t.Fatalf("sent %d slots, want %d", st.n(), slots)
	}
	if lag := maxOf(st.lags()); lag < ms(stall)/2 {
		t.Errorf("max generator lag %.1f ms after a %v stall", lag, stall)
	}
	// One action per slot, its frame arriving when the slot's POST
	// returned.
	ref := &reference{}
	at := make([]time.Time, slots)
	for s := 0; s < slots; s++ {
		ref.batches = append(ref.batches, []engine.OfficeAction{{Office: 0, Action: core.Action{Time: float64(s), Type: core.ActionAlertEnter}}})
		ref.slots = append(ref.slots, s)
		at[s] = st.done[s]
	}
	lat, err := measure(tapOf(t, ref.batches, at), st, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.tickToAction) != slots {
		t.Fatalf("%d latency samples, want %d", len(lat.tickToAction), slots)
	}
	// The slot right after the stall was due ~10 ms into it and sent
	// when it ended.
	if got := lat.tickToAction[stallAt+1]; got < ms(stall)/2 {
		t.Errorf("latency of the slot due during the stall = %.1f ms, want at least %.1f", got, ms(stall)/2)
	}
	if got := lat.tickToAction[1]; got > ms(stall)/2 {
		t.Errorf("latency of a slot before the stall = %.1f ms", got)
	}
	if post := st.posts()[stallAt+1]; post > ms(stall)/2 {
		t.Errorf("the late slot's own POST took %.1f ms; the wait belongs to latency, not the POST", post)
	}
}

func TestMeasureRejectsUnsentSlot(t *testing.T) {
	st := &slotTimes{}
	now := time.Now()
	st.add(now, now, now, false)
	ref := &reference{
		batches: [][]engine.OfficeAction{{{Office: 0, Action: core.Action{Time: 10, Type: core.ActionAlertEnter}}}},
		slots:   []int{1},
	}
	if _, err := measure(tapOf(t, ref.batches, []time.Time{now}), st, ref); !errors.Is(err, errSlotRange) {
		t.Fatalf("measure = %v, want errSlotRange", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"unchanged", []float64{101, 100, 102, 99, 100}, false, "unchanged"},
		{"latency up", []float64{130, 131, 129, 130, 132}, false, "worse"},
		{"latency down", []float64{70, 71, 69, 70, 72}, false, "better"},
		{"throughput down", []float64{70, 71, 69, 70, 72}, true, "worse"},
		{"noisy", []float64{60, 140, 100, 80, 120}, false, "unresolved"},
		{"noisy but every run better", []float64{10, 40, 20, 30, 50}, false, "better"},
	} {
		if got, _ := verdict(base, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRouterDuplicates(t *testing.T) {
	stderr := "fadewich-tail: routing on 127.0.0.1:4242\n" +
		"fadewich-tail: routed 5922 actions in 640 epochs from 2 workers (3 duplicate frames dropped)\n"
	if dup, err := routerDuplicates(stderr); err != nil || dup != 3 {
		t.Fatalf("routerDuplicates = %d, %v; want 3", dup, err)
	}
	if _, err := routerDuplicates("fadewich-tail: routing on 127.0.0.1:4242\n"); err == nil {
		t.Fatal("a router that printed no end-of-run line was accepted")
	}
}

func TestPeakRSS(t *testing.T) {
	mib, err := peakRSS(os.Getpid())
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if mib <= 0 {
		t.Fatalf("peak RSS of this test process = %v MiB", mib)
	}
}
