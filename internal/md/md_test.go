package md

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"fadewich/internal/rng"
	"fadewich/internal/stats"
)

// synthStreams builds numStreams quiet Gaussian streams of n ticks, then
// lets mutate inject events.
func synthStreams(numStreams, n int, seed uint64, mutate func(streams [][]int8)) [][]int8 {
	src := rng.New(seed)
	streams := make([][]int8, numStreams)
	for k := range streams {
		streams[k] = make([]int8, n)
		for i := range streams[k] {
			streams[k][i] = int8(-60 + src.Normal(0, 0.8))
		}
	}
	if mutate != nil {
		mutate(streams)
	}
	return streams
}

// addBurst raises the variance of all streams in [from, to).
func addBurst(streams [][]int8, from, to int, sd float64, seed uint64) {
	src := rng.New(seed)
	for k := range streams {
		for i := from; i < to && i < len(streams[k]); i++ {
			streams[k][i] = int8(-60 + src.Normal(0, sd))
		}
	}
}

func TestDetectorErrors(t *testing.T) {
	if _, err := NewDetector(Config{}, 0, 0.2); err == nil {
		t.Fatal("zero streams accepted")
	}
	if _, err := NewDetector(Config{}, 4, 0); err == nil {
		t.Fatal("zero dt accepted")
	}
}

func TestQuietStreamsStayNormal(t *testing.T) {
	streams := synthStreams(6, 3000, 1, nil)
	res, err := Run(streams, []int{0, 1, 2, 3, 4, 5}, 0.2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wins := FilterWindows(res.Windows, 0.2, 4.5)
	if len(wins) != 0 {
		t.Fatalf("quiet trace produced %d long windows", len(wins))
	}
	// By construction ~1% of ticks may flicker anomalous; the fraction
	// must stay small.
	anom := 0
	for _, a := range res.Anomalous {
		if a {
			anom++
		}
	}
	if frac := float64(anom) / float64(len(res.Anomalous)); frac > 0.05 {
		t.Fatalf("quiet anomalous fraction %v", frac)
	}
}

func TestBurstCreatesWindow(t *testing.T) {
	streams := synthStreams(6, 3000, 2, func(s [][]int8) {
		addBurst(s, 1500, 1540, 5, 99) // 8-second burst at t=300s
	})
	res, err := Run(streams, []int{0, 1, 2, 3, 4, 5}, 0.2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wins := FilterWindows(res.Windows, 0.2, 4.5)
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	t1 := float64(wins[0].StartTick) * 0.2
	if t1 < 298 || t1 > 304 {
		t.Fatalf("window starts at %vs, want ≈300", t1)
	}
}

func TestWindowEndsAfterBurst(t *testing.T) {
	streams := synthStreams(6, 4000, 3, func(s [][]int8) {
		addBurst(s, 2000, 2050, 5, 98)
	})
	res, _ := Run(streams, []int{0, 1, 2, 3, 4, 5}, 0.2, Config{})
	wins := FilterWindows(res.Windows, 0.2, 4.5)
	if len(wins) != 1 {
		t.Fatalf("windows %d", len(wins))
	}
	// Window must end within a few seconds of the burst end (std window
	// decay is 2.4 s by default).
	endT := float64(wins[0].EndTick) * 0.2
	if endT < 410 || endT > 418 {
		t.Fatalf("window ends at %v, want ≈410-414", endT)
	}
}

func TestTwoSeparatedBurstsTwoWindows(t *testing.T) {
	streams := synthStreams(6, 6000, 4, func(s [][]int8) {
		addBurst(s, 2000, 2035, 5, 97)
		addBurst(s, 4000, 4035, 5, 96)
	})
	res, _ := Run(streams, []int{0, 1, 2, 3, 4, 5}, 0.2, Config{})
	wins := FilterWindows(res.Windows, 0.2, 4.5)
	if len(wins) != 2 {
		t.Fatalf("windows %d, want 2", len(wins))
	}
}

func TestMergeGapJoinsCloseRuns(t *testing.T) {
	anom := make([]bool, 100)
	for i := 10; i < 20; i++ {
		anom[i] = true
	}
	for i := 22; i < 30; i++ { // 0.4s gap at dt=0.2
		anom[i] = true
	}
	wins := extractWindows(anom, 4)
	if len(wins) != 1 {
		t.Fatalf("gap not merged: %d windows", len(wins))
	}
	if wins[0].StartTick != 10 || wins[0].EndTick != 30 {
		t.Fatalf("merged window %+v", wins[0])
	}
	// Without merging, two windows.
	wins = extractWindows(anom, 0)
	if len(wins) != 2 {
		t.Fatalf("unmerged windows %d, want 2", len(wins))
	}
}

func TestExtractWindowsTrailingRun(t *testing.T) {
	anom := make([]bool, 50)
	for i := 40; i < 50; i++ {
		anom[i] = true
	}
	wins := extractWindows(anom, 4)
	if len(wins) != 1 || wins[0].EndTick != 50 {
		t.Fatalf("trailing run windows %+v", wins)
	}
}

func TestFilterWindows(t *testing.T) {
	wins := []Window{
		{StartTick: 0, EndTick: 10},  // 2.0s
		{StartTick: 20, EndTick: 43}, // 4.6s
		{StartTick: 50, EndTick: 72}, // 4.4s
	}
	got := FilterWindows(wins, 0.2, 4.5)
	if len(got) != 1 || got[0].StartTick != 20 {
		t.Fatalf("filtered %+v", got)
	}
}

func TestProfileAdaptsToShiftedBaseline(t *testing.T) {
	// Algorithm 1's batched update: after the environment's quiet level
	// rises slowly, the detector must stop flagging it.
	src := rng.New(5)
	det, err := NewDetector(Config{}, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	push := func(sd float64, n int) int {
		anomalous := 0
		buf := make([]float64, 4)
		for i := 0; i < n; i++ {
			for k := range buf {
				buf[k] = -60 + src.Normal(0, sd)
			}
			if state, _ := det.Push(buf); state == StateAnomalous {
				anomalous++
			}
		}
		return anomalous
	}
	push(0.5, 300) // warm-up + quiet
	// Drift the noise level up gradually (in small steps so each batch
	// passes the τ guard).
	for _, sd := range []float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8} {
		push(sd, 400)
	}
	late := push(0.8, 1000)
	if frac := float64(late) / 1000; frac > 0.1 {
		t.Fatalf("detector did not adapt: %.1f%% anomalous at the drifted level", frac*100)
	}
}

func TestSuddenJumpStaysAnomalous(t *testing.T) {
	// In contrast to slow drift, a sudden large jump must keep the
	// detector anomalous for a while (the batch τ guard rejects poisoned
	// batches).
	src := rng.New(6)
	det, _ := NewDetector(Config{}, 4, 0.2)
	buf := make([]float64, 4)
	for i := 0; i < 400; i++ {
		for k := range buf {
			buf[k] = -60 + src.Normal(0, 0.5)
		}
		det.Push(buf)
	}
	anomalous := 0
	for i := 0; i < 100; i++ {
		for k := range buf {
			buf[k] = -60 + src.Normal(0, 4)
		}
		if state, _ := det.Push(buf); state == StateAnomalous {
			anomalous++
		}
	}
	if anomalous < 80 {
		t.Fatalf("only %d/100 ticks anomalous after a 8x noise jump", anomalous)
	}
}

func TestDetectorWarmup(t *testing.T) {
	det, _ := NewDetector(Config{ProfileInitSec: 10}, 2, 0.2)
	buf := []float64{-60, -60}
	warmTicks := int(10 / 0.2)
	for i := 0; i < warmTicks-1; i++ {
		if state, _ := det.Push(buf); state != StateWarmup {
			t.Fatalf("tick %d: state %v during warm-up", i, state)
		}
	}
	det.Push(buf)
	if det.size == 0 {
		t.Fatal("profile not initialised after warm-up")
	}
	if det.Threshold() == 0 {
		t.Fatal("threshold not set after warm-up")
	}
}

func TestPushPanicsOnWrongLength(t *testing.T) {
	det, _ := NewDetector(Config{}, 3, 0.2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length Push did not panic")
		}
	}()
	det.Push([]float64{1})
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, nil, 0.2, Config{}); err == nil {
		t.Fatal("empty streams accepted")
	}
	streams := synthStreams(2, 100, 8, nil)
	if _, err := Run(streams, nil, 0.2, Config{}); err == nil {
		t.Fatal("empty subset accepted")
	}
}

func TestWindowDuration(t *testing.T) {
	w := Window{StartTick: 10, EndTick: 35}
	if d := w.Duration(0.2); d != 5 {
		t.Fatalf("duration %v", d)
	}
}

func TestSubsetRestrictsAnalysis(t *testing.T) {
	// A burst on stream 5 only must be invisible when analysing streams
	// 0..2 but visible over the full set.
	streams := synthStreams(6, 3000, 9, func(s [][]int8) {
		src := rng.New(77)
		for i := 1500; i < 1540; i++ {
			s[5][i] = int8(-60 + src.Normal(0, 12))
		}
	})
	resSub, _ := Run(streams, []int{0, 1, 2}, 0.2, Config{})
	if n := len(FilterWindows(resSub.Windows, 0.2, 4.5)); n != 0 {
		t.Fatalf("subset without the bursty stream saw %d windows", n)
	}
	resAll, _ := Run(streams, []int{0, 1, 2, 3, 4, 5}, 0.2, Config{})
	if n := len(FilterWindows(resAll.Windows, 0.2, 4.0)); n == 0 {
		t.Fatal("full set missed the burst")
	}
}

// detectorProfileSeeds seed FuzzDetectorProfile. The sixth puts 2 %
// of a full profile at one value far above the rest, so the KDE's 99th
// percentile lands on that value and s_t inside the certified bracket
// takes the exact inversion. The last two run profiles of non-negative
// values, s_t's range, until a NaN or a negative value arrives after
// warm-up.
var detectorProfileSeeds = [][]byte{
	{1, 2, 3, 5, 8, 13, 21, 34, 55},
	{7, 7, 7, 9, 9, 0, 0, 252, 7, 7, 7, 7},
	append(bytes.Repeat([]byte{10, 20, 30, 40}, 30), bytes.Repeat([]byte{220}, 60)...),
	{4, 240, 8, 244, 12, 248, 16, 252, 0, 230, 231, 232},
	{248, 250},
	bytes.Repeat(append([]byte{40}, make([]byte, 49)...), 40),
	append(bytes.Repeat([]byte{10, 20, 30, 40, 50}, 40), 249),
	append(bytes.Repeat([]byte{12, 25, 7, 33}, 50), 254, 255, 254),
}

// FuzzDetectorProfile feeds s_t streams straight into the batched
// profile update; see checkDetectorProfile.
func FuzzDetectorProfile(f *testing.F) {
	for _, seed := range detectorProfileSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDetectorProfile(t, data) })
}

// TestDetectorProfileSeedsReachLazyPaths runs FuzzDetectorProfile's
// seeds and requires them to decide ticks from the bracket on both
// sides and to reach the exact inversion from a tick inside it.
func TestDetectorProfileSeedsReachLazyPaths(t *testing.T) {
	var sum lazyCounts
	for _, seed := range detectorProfileSeeds {
		n := checkDetectorProfile(t, seed)
		sum.below += n.below
		sum.above += n.above
		sum.inside += n.inside
	}
	if sum.below == 0 || sum.above == 0 || sum.inside == 0 {
		t.Fatalf("seeds decided %d ticks below the bracket, %d above and %d inside; want each > 0",
			sum.below, sum.above, sum.inside)
	}
}

// lazyCounts counts the ticks that met a pending threshold below its
// bracket, above it, and inside it.
type lazyCounts struct{ below, above, inside int }

// checkDetectorProfile runs data through the detector's batched profile
// update under the default config, a small dt (the initial profile
// exceeds MaxProfile), MaxProfile < BatchSize (a merge drops accepted
// values), RefitEvery 3 (three batches per merge) and RefitEvery 1.
// Each input byte picks one value: small steps with many duplicates,
// large values whose runs get batches rejected, ±Inf, NaNs of either
// sign, −0 and negative values. See checkProfileRun for what is
// checked.
func checkDetectorProfile(t *testing.T, data []byte) (n lazyCounts) {
	t.Helper()
	if len(data) == 0 {
		return n
	}
	configs := []struct {
		cfg Config
		dt  float64
	}{
		{Config{}, 0.2},
		{Config{}, 0.04},
		{Config{MaxProfile: 25}, 0.2},
		{Config{RefitEvery: 3}, 0.2},
		{Config{RefitEvery: 1}, 0.2},
	}
	for _, c := range configs {
		ticks := int(DefaultConfig().ProfileInitSec/c.dt) + 1000
		got, _ := checkProfileRun(t, c.cfg, c.dt, ticks, func(i int) float64 {
			return profileValue(data[i%len(data)], i/len(data))
		})
		n.below += got.below
		n.above += got.above
		n.inside += got.inside
	}
	return n
}

// checkProfileRun feeds a detector one s_t per tick, value(0) to
// value(ticks−1), and holds it to a FIFO model of Algorithm 1 kept
// here: the warm-up values less the skipped ones, then every batch of
// BatchSize values with fewer than Tau anomalous appended, evicting the
// oldest beyond MaxProfile. On every tick the detector's FIFO length
// must be the model's, every profile buffer must keep the capacity
// initProfile gave it, and the tick's state must be s_t >= the
// threshold stats.NewKDE over the model gave at the last refit. At
// every refit (every RefitEvery accepted batches) the sorted profile
// must be sort.Float64s of the model, by bits and in profileCmp order.
// The threshold itself is read, and must be the model's bit for bit,
// only on the tick before each possible refit, so most ticks take the
// lazy path; the sorted profile must then still be the one the last
// refit read. It returns the lazy-path counts and the number of values
// the model inserted after warm-up.
func checkProfileRun(t *testing.T, cfg Config, dt float64, ticks int, value func(int) float64) (n lazyCounts, inserted int) {
	t.Helper()
	d, err := NewDetector(cfg, 1, dt)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	fail := func(tick int, format string, args ...any) {
		t.Helper()
		t.Fatalf("dt %v %+v tick %d: "+format, append([]any{dt, cfg, tick}, args...)...)
	}
	var (
		warm      []float64 // s_t values fed during warm-up
		fifo      []float64 // the model's profile, oldest first; nil during warm-up
		batch     []float64
		batchAnom int
		accepted  int       // batches accepted since the last refit
		read      []float64 // sorted profile at the last refit
		want      float64   // the model's threshold at the last refit
		caps      [4]int
	)
	profileCaps := func() [4]int { return [4]int{cap(d.sorted), cap(d.ins), cap(d.added), cap(d.order)} }
	refit := func(tick int) {
		t.Helper()
		read = append(read[:0], fifo...)
		sort.Float64s(read)
		if !sameBits(d.sorted, read) {
			fail(tick, "sorted profile holds other bit patterns than the model's FIFO")
		}
		if !sameOrder(d.sorted, read) || !slices.IsSortedFunc(d.sorted, profileCmp) {
			fail(tick, "sorted profile %v, want %v in profileCmp order", d.sorted, read)
		}
		if len(d.ins) != len(d.sorted) {
			fail(tick, "%d insertion numbers for %d values", len(d.ins), len(d.sorted))
		}
		read = append(read[:0], d.sorted...)
		kde, err := stats.NewKDE(fifo, cfg.KDEBandwidth)
		if err != nil {
			t.Fatal(err)
		}
		want = kde.Percentile(100 - cfg.Alpha)
	}
	warmTicks := int(cfg.ProfileInitSec / dt)
	for i := 0; i < ticks; i++ {
		st := value(i)
		if fifo == nil {
			warm = append(warm, st)
			if state := d.observe(st); state != StateWarmup {
				fail(i, "state %v during warm-up", state)
			}
			if i+1 < warmTicks {
				continue
			}
			skip := int(cfg.StdWindowSec / dt)
			if skip >= len(warm) {
				skip = len(warm) / 2
			}
			fifo = slices.Clone(warm[skip:])
			refit(i)
			caps = profileCaps()
		} else {
			if len(batch) == cfg.BatchSize-1 && accepted == cfg.RefitEvery-1 {
				if !slices.EqualFunc(d.sorted, read, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					fail(i, "sorted profile changed between refits")
				}
				// Which NaN a NaN threshold carries depends on the
				// order sort.Float64s leaves NaNs in, which it does not
				// define.
				if got := d.Threshold(); math.Float64bits(got) != math.Float64bits(want) &&
					!(math.IsNaN(got) && math.IsNaN(want)) {
					fail(i, "threshold %v, stats.NewKDE gives %v", got, want)
				}
			}
			pending, lo, hi, inversions := d.pending, d.lo, d.hi, d.inversions
			state := d.observe(st)
			wantState := StateNormal
			if st >= want {
				wantState = StateAnomalous
			}
			if state != wantState {
				fail(i, "s_t %v gives state %v, threshold %v gives %v (bracket [%v, %v], pending %v)",
					st, state, want, wantState, lo, hi, pending)
			}
			switch {
			case !pending:
			case st < lo:
				n.below++
			case st >= hi:
				n.above++
			default:
				n.inside++
				if d.inversions == inversions {
					fail(i, "s_t %v inside [%v, %v] decided without inverting", st, lo, hi)
				}
			}
			batch = append(batch, st)
			if state == StateAnomalous {
				batchAnom++
			}
			if len(batch) == cfg.BatchSize {
				if float64(batchAnom)/float64(len(batch)) < cfg.Tau {
					fifo = append(fifo, batch...)
					if over := len(fifo) - cfg.MaxProfile; over > 0 {
						fifo = append(fifo[:0], fifo[over:]...)
					}
					inserted += len(batch)
					if accepted++; accepted == cfg.RefitEvery {
						accepted = 0
						refit(i)
					}
				}
				batch, batchAnom = batch[:0], 0
			}
		}
		if d.size != len(fifo) {
			fail(i, "FIFO length %d, model holds %d", d.size, len(fifo))
		}
		if got := profileCaps(); got != caps {
			fail(i, "profile buffer capacities %v, initProfile allocated %v", got, caps)
		}
	}
	return n, inserted
}

// TestDetectorInsertionNumbersWrap runs a small profile past 2·2^16
// insertions, so its 16-bit insertion numbers wrap twice, and
// holds it to the FIFO model. Values repeat often, so equal values with
// different insertion numbers meet in every merge.
func TestDetectorInsertionNumbersWrap(t *testing.T) {
	src := rng.New(12)
	value := func(i int) float64 {
		if i%97 == 0 {
			return profileValue(byte(200+src.Intn(56)), 0)
		}
		return float64(src.Intn(24)) / 4
	}
	cfg := Config{ProfileInitSec: 4, MaxProfile: 7, BatchSize: 3, RefitEvery: 2}
	const ticks = 250_000
	if _, inserted := checkProfileRun(t, cfg, 0.2, ticks, value); inserted < 2<<16 {
		t.Fatalf("%d ticks inserted %d values, want at least %d", ticks, inserted, 2<<16)
	}
}

// TestDetectorProfileWindowBound pins where NewDetector refuses a
// config: its live window, max(warm-up ticks, MaxProfile) +
// RefitEvery·BatchSize, must stay below 2^16.
func TestDetectorProfileWindowBound(t *testing.T) {
	def := DefaultConfig()
	pending := def.RefitEvery * def.BatchSize
	maxRefitEvery := (1<<16 - 1 - def.MaxProfile) / def.BatchSize
	cases := []struct {
		cfg Config
		dt  float64
		ok  bool
	}{
		{Config{MaxProfile: 1<<16 - 1 - pending}, 0.2, true},
		{Config{MaxProfile: 1<<16 - pending}, 0.2, false},
		{Config{RefitEvery: maxRefitEvery}, 0.2, true},
		{Config{RefitEvery: maxRefitEvery + 1}, 0.2, false},
		{Config{}, 30.0 / (1<<16 - 1 - float64(pending)), true},
		{Config{}, 30.0 / (1<<16 - float64(pending)), false},
		{Config{}, 1e-300, false},
		{Config{}, math.NaN(), false},
	}
	for _, c := range cases {
		_, err := NewDetector(c.cfg, 1, c.dt)
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrProfileWindow) {
			t.Errorf("NewDetector(%+v, dt %v): error %v, want ok %v", c.cfg, c.dt, err, c.ok)
		}
	}
	if _, err := NewDetector(Config{BatchSize: -1}, 1, 0.2); err == nil || errors.Is(err, ErrProfileWindow) {
		t.Errorf("negative BatchSize: error %v, want a non-positive size error", err)
	}
}

// TestDetectorPushNoAllocs requires steady-state ticks, refits and
// their merges included, to allocate nothing.
func TestDetectorPushNoAllocs(t *testing.T) {
	det, err := NewDetector(Config{}, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	buf := make([]float64, 4)
	push := func() {
		for k := range buf {
			buf[k] = -60 + src.Normal(0, 0.8)
		}
		det.Push(buf)
	}
	for i := 0; i < 1000; i++ {
		push()
	}
	perRun := det.cfg.RefitEvery * det.cfg.BatchSize
	next := det.next
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			push()
		}
	})
	if det.next == next {
		t.Fatal("no refit merged values during the measured ticks")
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per %d ticks, want 0", allocs, perRun)
	}
}

// profileValue maps a fuzz byte, on the given pass over the input, to
// an s_t value.
func profileValue(b byte, pass int) float64 {
	switch {
	case b < 200:
		return float64(b%64)/4 + float64(pass%3)
	case b < 240:
		return 100 + float64(b)
	case b < 244:
		return math.Inf(1)
	case b < 248:
		return math.Inf(-1)
	case b < 250:
		return math.NaN()
	case b < 252:
		return math.Copysign(math.NaN(), -1)
	case b < 254:
		return math.Copysign(0, -1)
	}
	return 250 - float64(b)
}

// sameOrder reports whether got equals want, a sort.Float64s result,
// up to the order of values sort.Float64s treats as equal: ±0, and
// NaNs.
func sameOrder(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(a, b float64) bool {
		return a == b || math.IsNaN(a) && math.IsNaN(b)
	})
}

// sameBits reports whether a and b hold the same multiset of bit
// patterns.
func sameBits(a, b []float64) bool {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bits(a), bits(b))
}
