// Package md implements the Movement Detection module of Section IV-C:
// the per-stream rolling standard deviations whose sum s_t is the
// detection statistic, the Gaussian-KDE "normal profile" of s_t with its
// (100−α)-th percentile anomaly threshold, the batched profile update of
// Algorithm 1 (which keeps the profile current as office occupancy
// changes), and the extraction of variation windows — the anomalous
// intervals that drive the whole system.
package md

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"fadewich/internal/stats"
)

// Config parameterises the detector. Zero fields take defaults.
type Config struct {
	// StdWindowSec is d, the sliding window over which each stream's
	// standard deviation is computed.
	StdWindowSec float64
	// ProfileInitSec is the initial non-adversarial period used to build
	// the first normal profile ("30 seconds in our experiments").
	ProfileInitSec float64
	// Alpha is the anomaly tail percentage: s_t above the (100−α)-th
	// percentile of the profile is anomalous.
	Alpha float64
	// BatchSize is b, the number of s_t values queued before a profile
	// update is attempted.
	BatchSize int
	// Tau is the fraction of anomalous values above which a queued batch
	// is discarded instead of merged into the profile.
	Tau float64
	// MaxProfile bounds the profile sample count; accepting a batch
	// evicts the oldest values beyond this bound.
	MaxProfile int
	// KDEBandwidth overrides the kernel bandwidth; 0 selects Silverman's
	// rule.
	KDEBandwidth float64
	// MergeGapSec closes gaps shorter than this between consecutive
	// anomalous runs, so a walker briefly passing a dead spot does not
	// split one variation window into two.
	MergeGapSec float64
	// RefitEvery re-estimates the KDE and threshold only every so many
	// accepted batches; the profile drifts slowly, so a slightly stale
	// threshold is statistically irrelevant but much cheaper over
	// multi-day traces. The accepted batches wait until the refit, which
	// merges them into the profile in one pass, so between refits the
	// profile is exactly what the last refit's KDE reads. A refit
	// certifies a narrow bracket around the threshold and inverts the
	// KDE exactly only when needed (see Threshold).
	RefitEvery int
}

// DefaultConfig returns the calibrated detector parameters.
func DefaultConfig() Config {
	return Config{
		StdWindowSec:   2.4,
		ProfileInitSec: 30,
		Alpha:          1.0,
		BatchSize:      40,
		Tau:            0.25,
		MaxProfile:     600,
		MergeGapSec:    0.8,
		RefitEvery:     2,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.StdWindowSec == 0 {
		c.StdWindowSec = d.StdWindowSec
	}
	if c.ProfileInitSec == 0 {
		c.ProfileInitSec = d.ProfileInitSec
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.Tau == 0 {
		c.Tau = d.Tau
	}
	if c.MaxProfile == 0 {
		c.MaxProfile = d.MaxProfile
	}
	if c.MergeGapSec == 0 {
		c.MergeGapSec = d.MergeGapSec
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = d.RefitEvery
	}
	return c
}

// State is the detector's per-tick verdict.
type State int

// Detector states. Warmup is reported while the initial profile is still
// being collected.
const (
	StateWarmup State = iota + 1
	StateNormal
	StateAnomalous
)

// Detector is the online movement detector. Feed it one tick of stream
// samples at a time with Push. Not safe for concurrent use.
//
// The normal profile is Algorithm 1's FIFO of at most MaxProfile s_t
// values (more only while the initial profile is larger), and it
// changes only at a refit. sorted holds its values in profileCmp order
// and ins each value's insertion number, counted mod 2^16; between
// refits sorted is exactly what the last refit's KDE reads. added holds
// the values accepted since the last refit, oldest first, with the open
// batch at its tail, and order is scratch for sorting them. initProfile
// allocates all four once, at the most they ever hold.
type Detector struct {
	cfg     Config
	dt      float64
	rolling []*stats.RollingStd
	sorted  []float64 // nil during warm-up
	ins     []uint16
	added   []float64
	order   []uint16
	size    int    // FIFO length, counted as batches are accepted
	next    uint16 // insertion number of added[0]
	// kde is the last refit's profile KDE; it reads sorted.
	kde stats.KDE
	// lo and hi decide a tick without the threshold: s_t < lo is normal
	// and s_t >= hi anomalous. While pending, they are the bracket the
	// refit certified and threshold is not yet computed; otherwise both
	// equal threshold.
	lo, hi    float64
	threshold float64
	pending   bool
	// inversions counts the exact KDE inversions, for tests.
	inversions int
	batchAnom  int       // anomalous values in the open batch
	warmup     []float64 // s_t values collected during initialisation
	warmTicks  int
	ticks      int
	// accepted counts batches accepted since the last refit,
	// implementing RefitEvery.
	accepted int
}

// ErrProfileWindow is returned by NewDetector for a config whose live
// profile window, max(warm-up ticks, MaxProfile) + RefitEvery·BatchSize
// values, does not fit the detector's 16-bit insertion numbers.
var ErrProfileWindow = errors.New("md: profile window exceeds 65535 values")

// NewDetector returns a detector over numStreams streams sampled every dt
// seconds. It returns an error for invalid arguments.
func NewDetector(cfg Config, numStreams int, dt float64) (*Detector, error) {
	if numStreams < 1 {
		return nil, fmt.Errorf("md: need at least one stream, got %d", numStreams)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("md: tick duration must be positive, got %v", dt)
	}
	cfg = cfg.withDefaults()
	if cfg.BatchSize < 1 || cfg.MaxProfile < 1 || cfg.RefitEvery < 1 {
		return nil, fmt.Errorf("md: BatchSize %d, MaxProfile %d and RefitEvery %d must be positive",
			cfg.BatchSize, cfg.MaxProfile, cfg.RefitEvery)
	}
	// Checked in float, so a tiny dt cannot overflow the tick count, and
	// negated, so a NaN fails.
	warm := cfg.ProfileInitSec / dt
	if window := max(warm, float64(cfg.MaxProfile)) + float64(cfg.RefitEvery)*float64(cfg.BatchSize); !(window < 1<<16) {
		return nil, fmt.Errorf("%w: %.0f warm-up ticks (ProfileInitSec %v s at dt %v s), MaxProfile %d, RefitEvery %d × BatchSize %d",
			ErrProfileWindow, warm, cfg.ProfileInitSec, dt, cfg.MaxProfile, cfg.RefitEvery, cfg.BatchSize)
	}
	w := int(cfg.StdWindowSec / dt)
	if w < 2 {
		w = 2
	}
	d := &Detector{
		cfg:       cfg,
		dt:        dt,
		rolling:   make([]*stats.RollingStd, numStreams),
		warmTicks: int(warm),
	}
	for i := range d.rolling {
		d.rolling[i] = stats.NewRollingStd(w)
	}
	return d, nil
}

// SumStd returns the current detection statistic s_t.
func (d *Detector) SumStd() float64 {
	var sum float64
	for _, r := range d.rolling {
		sum += r.Std()
	}
	return sum
}

// Threshold returns the current anomaly threshold (the (100−α)-th profile
// percentile), or 0 during warm-up. A tick needs it only when s_t lands
// in the narrow bracket its refit certified, so the first read after a
// refit may have to invert the KDE (tens of µs); the result is cached
// until the next refit.
func (d *Detector) Threshold() float64 {
	if d.pending {
		d.pending = false
		d.inversions++
		d.threshold = d.kde.Percentile(100 - d.cfg.Alpha)
		d.lo, d.hi = d.threshold, d.threshold
	}
	return d.threshold
}

// Push feeds one tick of samples (one value per stream, dBm) and returns
// the detector state for this tick, together with the statistic s_t.
func (d *Detector) Push(samples []float64) (State, float64) {
	if len(samples) != len(d.rolling) {
		panic(fmt.Sprintf("md: Push got %d samples, want %d", len(samples), len(d.rolling)))
	}
	for i, x := range samples {
		d.rolling[i].Push(x)
	}
	st := d.SumStd()
	return d.observe(st), st
}

// observe runs one tick's statistic s_t through warm-up or the batched
// profile update and returns the tick's state.
func (d *Detector) observe(st float64) State {
	d.ticks++
	if d.sorted == nil {
		d.warmup = append(d.warmup, st)
		if d.ticks >= d.warmTicks {
			d.initProfile()
		}
		return StateWarmup
	}

	// st >= d.Threshold(), inverting the KDE only inside [lo, hi).
	var anomalous bool
	switch {
	case st < d.lo:
	case st >= d.hi:
		anomalous = true
	default:
		anomalous = st >= d.Threshold()
	}
	d.enqueue(st, anomalous)
	if anomalous {
		return StateAnomalous
	}
	return StateNormal
}

// initProfile builds the first normal profile from the warm-up samples.
// The earliest StdWindowSec worth of values is dropped: the rolling
// windows were not yet full and their tiny standard deviations would bias
// the profile low. The profile buffers are allocated here, once: the
// FIFO never holds more than max(initial, MaxProfile) values, nor a
// refit more than RefitEvery batches.
func (d *Detector) initProfile() {
	skip := int(d.cfg.StdWindowSec / d.dt)
	if skip >= len(d.warmup) {
		skip = len(d.warmup) / 2
	}
	initial := d.warmup[skip:]
	n, pending := len(initial), d.cfg.RefitEvery*d.cfg.BatchSize
	d.sorted = make([]float64, n, max(n, d.cfg.MaxProfile))
	d.ins = make([]uint16, n, cap(d.sorted))
	d.added = make([]float64, 0, pending)
	d.order = make([]uint16, pending)
	order := make([]uint16, n)
	sortOrder(order, initial)
	for i, k := range order {
		d.sorted[i], d.ins[i] = initial[k], k
	}
	d.size, d.next = n, uint16(n)
	d.warmup = nil
	d.refit()
}

// enqueue implements the batched profile update of Algorithm 1: a full
// batch with too many anomalous values is dropped from added, and every
// RefitEvery accepted batches are merged into the profile and refit.
func (d *Detector) enqueue(st float64, anomalous bool) {
	d.added = append(d.added, st)
	if anomalous {
		d.batchAnom++
	}
	open := len(d.added) - d.accepted*d.cfg.BatchSize
	if open < d.cfg.BatchSize {
		return
	}
	if frac := float64(d.batchAnom) / float64(open); frac < d.cfg.Tau {
		// Accepting a batch appends it to the FIFO and evicts the oldest
		// values beyond MaxProfile.
		d.size = min(d.size+open, d.cfg.MaxProfile)
		d.accepted++
		if d.accepted >= d.cfg.RefitEvery {
			d.accepted = 0
			d.merge()
			d.refit()
		}
	} else {
		d.added = d.added[:len(d.added)-open]
	}
	d.batchAnom = 0
}

// merge brings the profile to the FIFO's d.size newest values in one
// in-place pass: it drops the values the accepted ones pushed out
// (possibly some accepted ones too, when MaxProfile < BatchSize),
// sorts the surviving accepted values by index, and merges them in from
// the back.
func (d *Detector) merge() {
	end := d.next + uint16(len(d.added)) // insertion number of the next value
	// A value is in the FIFO iff it is among the d.size newest. Ages
	// stay below 2^16 (NewDetector's bound), so uint16 arithmetic gives
	// them exactly.
	size := uint16(d.size)
	m := 0
	for i, v := range d.sorted {
		if end-d.ins[i] <= size {
			d.sorted[m], d.ins[m] = v, d.ins[i]
			m++
		}
	}
	first := len(d.added) - (d.size - m) // oldest surviving accepted value
	add, order := d.added[first:], d.order[:d.size-m]
	sortOrder(order, add)
	base := d.next + uint16(first)
	d.sorted, d.ins = d.sorted[:d.size], d.ins[:d.size]
	i, j := m-1, len(order)-1
	for w := d.size - 1; j >= 0; w-- {
		if v := add[order[j]]; i >= 0 && profileCmp(d.sorted[i], v) > 0 {
			d.sorted[w], d.ins[w] = d.sorted[i], d.ins[i]
			i--
		} else {
			d.sorted[w], d.ins[w] = v, base+order[j]
			j--
		}
	}
	d.added, d.next = d.added[:0], end
}

// refit re-estimates the profile KDE and certifies a bracket around the
// anomaly threshold; the threshold itself is inverted only when a tick
// or a caller needs it, or at once when the bracket does not certify.
func (d *Detector) refit() {
	kde, err := stats.NewKDESorted(d.sorted, d.cfg.KDEBandwidth)
	if err != nil {
		// initProfile leaves at least one value, and every merge keeps
		// d.sorted in order: only a bug gets here.
		panic("md: refit: " + err.Error())
	}
	d.kde = kde
	var ok bool
	d.lo, d.hi, ok = kde.PercentileBracket(100 - d.cfg.Alpha)
	d.pending = true
	if !ok {
		d.Threshold()
	}
}

// profileCmp orders s_t values as sort.Float64s does (NaNs first, then
// ascending) and breaks that order's ties, ±0 and NaNs, by bit pattern.
// Every order it gives is one sort.Float64s may give, and two values
// compare equal only when they are identical, so the profile's order is
// unique up to identical values.
func profileCmp(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
}

// sortOrder sets order, of len(vals), to the indices of vals in
// profileCmp order of their values.
func sortOrder(order []uint16, vals []float64) {
	for i := range order {
		order[i] = uint16(i)
	}
	slices.SortFunc(order, func(a, b uint16) int { return profileCmp(vals[a], vals[b]) })
}

// Window is a variation window: a maximal anomalous interval, in ticks.
type Window struct {
	StartTick, EndTick int // inclusive start, exclusive end
}

// Duration returns the window length in seconds for tick duration dt.
func (w Window) Duration(dt float64) float64 {
	return float64(w.EndTick-w.StartTick) * dt
}

// Result is the outcome of an offline detector run over a full trace.
type Result struct {
	// SumStd is the s_t series, one value per tick (0 during warm-up
	// before the rolling windows fill).
	SumStd []float64
	// Anomalous flags each tick (false during warm-up).
	Anomalous []bool
	// Windows are the raw variation windows after gap merging but before
	// any t∆ minimum-duration filtering.
	Windows []Window
	// DT is the tick duration.
	DT float64
}

// Run executes the detector over a full multi-stream trace (streams are
// [stream][tick] as produced by the simulator) restricted to the given
// stream subset. It returns the per-tick statistic and the extracted
// variation windows.
func Run(streams [][]int8, subset []int, dt float64, cfg Config) (*Result, error) {
	if len(streams) == 0 || len(subset) == 0 {
		return nil, fmt.Errorf("md: no streams to analyse")
	}
	ticks := len(streams[0])
	det, err := NewDetector(cfg, len(subset), dt)
	if err != nil {
		return nil, err
	}
	res := &Result{
		SumStd:    make([]float64, ticks),
		Anomalous: make([]bool, ticks),
		DT:        dt,
	}
	buf := make([]float64, len(subset))
	for i := 0; i < ticks; i++ {
		for j, k := range subset {
			buf[j] = float64(streams[k][i])
		}
		state, st := det.Push(buf)
		res.SumStd[i] = st
		res.Anomalous[i] = state == StateAnomalous
	}
	res.Windows = extractWindows(res.Anomalous, dt, cfg.withDefaults().MergeGapSec)
	return res, nil
}

// extractWindows converts the per-tick anomaly flags into maximal windows,
// merging runs separated by gaps shorter than mergeGapSec.
func extractWindows(anomalous []bool, dt, mergeGapSec float64) []Window {
	gap := int(mergeGapSec / dt)
	var out []Window
	inWin := false
	start := 0
	for i, a := range anomalous {
		if a && !inWin {
			inWin = true
			start = i
		} else if !a && inWin {
			inWin = false
			out = append(out, Window{StartTick: start, EndTick: i})
		}
	}
	if inWin {
		out = append(out, Window{StartTick: start, EndTick: len(anomalous)})
	}
	if gap <= 0 || len(out) < 2 {
		return out
	}
	merged := out[:1]
	for _, w := range out[1:] {
		last := &merged[len(merged)-1]
		if w.StartTick-last.EndTick <= gap {
			last.EndTick = w.EndTick
		} else {
			merged = append(merged, w)
		}
	}
	return merged
}

// FilterWindows returns the windows lasting at least minDurSec. Windows
// shorter than t∆ are ignored by the controller (Section IV-C4): they are
// attributed to users shifting in place or brief radio glitches.
func FilterWindows(ws []Window, dt, minDurSec float64) []Window {
	var out []Window
	for _, w := range ws {
		if w.Duration(dt) >= minDurSec {
			out = append(out, w)
		}
	}
	return out
}
