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
	// MaxProfile bounds the profile sample count; merging a batch evicts
	// the oldest values beyond this bound.
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
	// multi-day traces. A refit certifies a narrow bracket around the
	// threshold and inverts the KDE exactly only when needed (see
	// Threshold). Above 2, a merge would overwrite the profile the last
	// refit's KDE reads before the next refit, so the threshold is
	// inverted then at the latest.
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
type Detector struct {
	cfg     Config
	dt      float64
	rolling []*stats.RollingStd
	profile []float64 // FIFO of s_t values forming the normal profile; nil during warm-up
	// sorted holds the profile's values in profileCmp order, kept in
	// step with the FIFO so a refit need not sort. spare is the buffer
	// the next merge writes into, and evicted holds the values one
	// accepted batch pushes out of the FIFO.
	sorted, spare, evicted []float64
	// kde is the last refit's profile KDE. It reads the sorted buffer of
	// that refit, which the next merge moves to spare and the one after
	// overwrites.
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
	queue      []float64 // batch queue Q of Algorithm 1
	queueAnom  int       // anomalous values in the queue
	warmup     []float64 // s_t values collected during initialisation
	warmTicks  int
	ticks      int
	// accepted counts batches merged since the last refit, implementing
	// RefitEvery.
	accepted int
}

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
	w := int(cfg.StdWindowSec / dt)
	if w < 2 {
		w = 2
	}
	d := &Detector{
		cfg:       cfg,
		dt:        dt,
		rolling:   make([]*stats.RollingStd, numStreams),
		warmTicks: int(cfg.ProfileInitSec / dt),
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

// ProfileSize returns the number of s_t values in the normal profile.
func (d *Detector) ProfileSize() int { return len(d.profile) }

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
	if d.profile == nil {
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
// the profile low. The FIFO is allocated once, at the most it ever holds:
// a merge appends a batch before evicting down to MaxProfile.
func (d *Detector) initProfile() {
	skip := int(d.cfg.StdWindowSec / d.dt)
	if skip >= len(d.warmup) {
		skip = len(d.warmup) / 2
	}
	initial := d.warmup[skip:]
	d.profile = make([]float64, len(initial), max(len(initial), d.cfg.MaxProfile)+d.cfg.BatchSize)
	copy(d.profile, initial)
	d.sorted = append(d.sorted, d.profile...)
	sortProfile(d.sorted)
	d.warmup = nil
	d.refit()
}

// enqueue implements the batched profile update of Algorithm 1.
func (d *Detector) enqueue(st float64, anomalous bool) {
	d.queue = append(d.queue, st)
	if anomalous {
		d.queueAnom++
	}
	if len(d.queue) < d.cfg.BatchSize {
		return
	}
	frac := float64(d.queueAnom) / float64(len(d.queue))
	if frac < d.cfg.Tau {
		d.profile = append(d.profile, d.queue...)
		d.evicted = d.evicted[:0]
		if over := len(d.profile) - d.cfg.MaxProfile; over > 0 {
			// The evicted values may include some of this batch's
			// (MaxProfile < BatchSize), and more than a batch's worth
			// when the initial profile exceeds MaxProfile.
			d.evicted = append(d.evicted, d.profile[:over]...)
			d.profile = d.profile[:copy(d.profile, d.profile[over:])]
		}
		// The queue is reset below, so it is sorted in place.
		sortProfile(d.queue)
		sortProfile(d.evicted)
		// One merge after a refit, spare holds the profile d.kde reads.
		// This merge overwrites it, so unless a refit follows, the
		// threshold is inverted first.
		if d.accepted == 1 && d.cfg.RefitEvery > 2 {
			d.Threshold()
		}
		d.sorted, d.spare = mergeProfile(d.spare[:0], d.sorted, d.queue, d.evicted), d.sorted
		d.accepted++
		if d.accepted >= d.cfg.RefitEvery {
			d.accepted = 0
			d.refit()
		}
	}
	d.queue = d.queue[:0]
	d.queueAnom = 0
}

// refit re-estimates the profile KDE and certifies a bracket around the
// anomaly threshold; the threshold itself is inverted only when a tick
// or a caller needs it, or at once when the bracket does not certify.
func (d *Detector) refit() {
	kde, err := stats.NewKDESorted(d.sorted, d.cfg.KDEBandwidth)
	if err != nil {
		// initProfile leaves at least one value, and every update keeps
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
// compare equal only when they are identical, so a merge can drop an
// evicted value by comparison alone.
func profileCmp(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
}

// sortProfile sorts xs in profileCmp order.
func sortProfile(xs []float64) {
	slices.Sort(xs) // sort.Float64s order
	// Only ±0 and NaNs tie there without being identical.
	if _, zero := slices.BinarySearch(xs, 0); zero || len(xs) > 0 && math.IsNaN(xs[0]) {
		slices.SortFunc(xs, profileCmp)
	}
}

// mergeProfile appends to dst, in profileCmp order, the values of the
// sorted profile old and the sorted batch add less the sorted values
// evict, which must all occur in old or add. It is one linear pass.
func mergeProfile(dst, old, add, evict []float64) []float64 {
	i, j := 0, 0
	for i < len(old) || j < len(add) {
		var v float64
		if j == len(add) || i < len(old) && profileLessEq(old[i], add[j]) {
			v, i = old[i], i+1
		} else {
			v, j = add[j], j+1
		}
		// Equal under profileCmp means identical bits.
		if len(evict) > 0 && math.Float64bits(v) == math.Float64bits(evict[0]) {
			evict = evict[1:]
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// profileLessEq is profileCmp(a, b) <= 0, without the call for two
// distinct numbers.
func profileLessEq(a, b float64) bool {
	switch {
	case a < b:
		return true
	case b < a:
		return false
	}
	return profileCmp(a, b) <= 0
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
