// Package rf simulates the physical radio layer that FADEWICH's testbed
// provided with nine real WiFi sensors: for every ordered pair of sensors
// (a directed link, the paper's "stream") it produces a per-tick RSSI
// reading in dBm.
//
// The model composes four effects, each grounded in the device-free
// localisation literature the paper builds on (RADAR [2], RTI [32, 33],
// fade-level modelling [19]):
//
//  1. Large-scale path loss — the log-distance model
//     RSSI(d) = P_tx − PL(d₀) − 10·n·log₁₀(d/d₀) plus a static per-link
//     shadowing offset capturing walls/furniture, fixed for a run.
//  2. Human-body shadowing — a body near the link's line of sight
//     attenuates it. We use the elliptical (excess-path-length) model from
//     the RTI literature: attenuation decays exponentially with the extra
//     distance the path A→body→B adds over A→B. This is deterministic in
//     the body position, which is what makes departures from different
//     workstations distinguishable signatures for the RE classifier.
//  3. Motion-induced multipath perturbation — a *moving* body anywhere in
//     the room stirs the multipath field and raises the noise floor of
//     nearby links; we add zero-mean Gaussian noise whose standard
//     deviation decays with the body's distance to the link and grows with
//     its speed. This is the effect the MD module detects.
//  4. Receiver imperfections — temporally correlated (AR(1)) measurement
//     noise, occasional interference bursts, and 1 dB quantisation, so
//     quiet streams look like real radios (integer dBm wiggling by a
//     couple of dB) rather than like clean floats.
//
// The simulator is deliberately a *statistical* reproduction, not an EM
// field solver: FADEWICH's two modules consume only windowed second-order
// statistics (standard deviations, variances, entropies, autocorrelations)
// of the streams, and those are exactly the quantities this model is
// calibrated to produce.
//
// The implementation is columnar: link geometry lives in flat
// struct-of-arrays columns, per-tick body effects are computed once per
// link (once per sensor pair where bitwise-symmetric) and shared across
// subcarrier streams, and SampleBlock fills a contiguous Block buffer
// for many ticks with zero per-tick allocation. Sample remains as the
// per-tick wrapper; both paths are byte-identical and golden-tested
// (see docs/PERFORMANCE.md).
package rf

import (
	"fmt"
	"math"

	"fadewich/internal/geom"
	"fadewich/internal/rng"
)

// Disable is the sentinel for Config fields whose zero value would
// otherwise be replaced by a default. Setting one of ShadowStdDB,
// NoiseStdDB, NoiseAR, BodyAttenDB, MotionNoiseStdDB,
// InterferencePerHour, InterferenceStdDB or QuantStepDB to Disable (or
// any negative value) switches that effect off explicitly — something a
// literal 0 cannot express, since 0 means "use the default". For
// QuantStepDB the receiver then reports unquantised floats; for the
// noise and interference fields the corresponding term vanishes.
const Disable = -1

// Config parameterises the propagation model. Zero fields are replaced by
// the defaults from DefaultConfig; the fields listed at Disable accept a
// negative sentinel to turn the effect off entirely.
type Config struct {
	// TxPowerDBm is the sensors' transmit power.
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance (≈40 dB at
	// 2.4 GHz).
	RefLossDB float64
	// PathLossExp is the log-distance path loss exponent n (2.0 free
	// space; 2.5–4 cluttered indoor).
	PathLossExp float64
	// ShadowStdDB is the standard deviation of the static per-link
	// shadowing offset.
	ShadowStdDB float64
	// NoiseStdDB is the standard deviation of the stationary AR(1)
	// measurement noise on a quiet link.
	NoiseStdDB float64
	// NoiseAR is the AR(1) coefficient of the measurement noise in (0,1);
	// higher values give slower, smoother wander.
	NoiseAR float64
	// BodyAttenDB is the maximum attenuation a single body inflicts when
	// standing exactly on the line of sight.
	BodyAttenDB float64
	// BodyEllipseM is the excess-path-length scale (metres) of the
	// elliptical shadowing model; larger values widen the sensitive
	// region around each link.
	BodyEllipseM float64
	// MotionNoiseStdDB is the noise standard deviation a body moving at
	// 1 m/s induces on a link it stands on; it decays with distance from
	// the link and scales with speed.
	MotionNoiseStdDB float64
	// MotionRangeM is the exponential decay range of the motion-induced
	// perturbation with the body's distance from the link segment.
	MotionRangeM float64
	// QuantStepDB is the receiver's RSSI quantisation step (1 dB on
	// commodity hardware).
	QuantStepDB float64
	// MinRSSIDBm and MaxRSSIDBm clamp the reported value to the
	// receiver's dynamic range.
	MinRSSIDBm, MaxRSSIDBm float64
	// InterferencePerHour is the expected number of external interference
	// bursts (e.g. a microwave oven, co-channel WiFi traffic) per hour.
	// Bursts raise noise on a random subset of links for a few seconds
	// and are the main source of MD false positives besides in-room
	// fidgeting.
	InterferencePerHour float64
	// InterferenceStdDB is the extra noise std during a burst.
	InterferenceStdDB float64
	// InterferenceMeanSec is the mean burst duration in seconds.
	InterferenceMeanSec float64
	// Subcarriers emulates CSI-grade measurements: each link reports this
	// many sub-streams with independent fast noise but shared body
	// shadowing. 0 or 1 yields plain RSSI. This implements the paper's
	// future-work item on channel state information.
	Subcarriers int
}

// DefaultConfig returns the calibrated parameter set used throughout the
// reproduction. The values land quiet links at an RSSI jitter of ≈0.5–1 dB
// and a body crossing a link at a 5–8 dB dip, matching the magnitudes
// reported in the RTI literature.
func DefaultConfig() Config {
	return Config{
		TxPowerDBm:          4,
		RefLossDB:           40,
		PathLossExp:         3.0,
		ShadowStdDB:         2.0,
		NoiseStdDB:          0.7,
		NoiseAR:             0.6,
		BodyAttenDB:         7.0,
		BodyEllipseM:        0.35,
		MotionNoiseStdDB:    3.6,
		MotionRangeM:        0.7,
		QuantStepDB:         1.0,
		MinRSSIDBm:          -95,
		MaxRSSIDBm:          -20,
		InterferencePerHour: 0.4,
		InterferenceStdDB:   2.2,
		InterferenceMeanSec: 1.2,
		Subcarriers:         1,
	}
}

// defaultOrDisable resolves one sentinel-aware field: 0 selects the
// default, a negative value (the Disable sentinel) resolves to an
// effective 0 that switches the effect off.
func defaultOrDisable(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// withDefaults fills zero fields from DefaultConfig and resolves Disable
// sentinels on the fields that accept them.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = d.TxPowerDBm
	}
	if c.RefLossDB == 0 {
		c.RefLossDB = d.RefLossDB
	}
	if c.PathLossExp == 0 {
		c.PathLossExp = d.PathLossExp
	}
	c.ShadowStdDB = defaultOrDisable(c.ShadowStdDB, d.ShadowStdDB)
	c.NoiseStdDB = defaultOrDisable(c.NoiseStdDB, d.NoiseStdDB)
	c.NoiseAR = defaultOrDisable(c.NoiseAR, d.NoiseAR)
	c.BodyAttenDB = defaultOrDisable(c.BodyAttenDB, d.BodyAttenDB)
	if c.BodyEllipseM == 0 {
		c.BodyEllipseM = d.BodyEllipseM
	}
	c.MotionNoiseStdDB = defaultOrDisable(c.MotionNoiseStdDB, d.MotionNoiseStdDB)
	if c.MotionRangeM == 0 {
		c.MotionRangeM = d.MotionRangeM
	}
	c.QuantStepDB = defaultOrDisable(c.QuantStepDB, d.QuantStepDB)
	if c.MinRSSIDBm == 0 {
		c.MinRSSIDBm = d.MinRSSIDBm
	}
	if c.MaxRSSIDBm == 0 {
		c.MaxRSSIDBm = d.MaxRSSIDBm
	}
	c.InterferencePerHour = defaultOrDisable(c.InterferencePerHour, d.InterferencePerHour)
	c.InterferenceStdDB = defaultOrDisable(c.InterferenceStdDB, d.InterferenceStdDB)
	if c.InterferenceMeanSec == 0 {
		c.InterferenceMeanSec = d.InterferenceMeanSec
	}
	if c.Subcarriers < 1 {
		c.Subcarriers = 1
	}
	return c
}

// Body is a human body on the floor plan as seen by the radio layer.
type Body struct {
	Pos geom.Point
	// Speed is the body's current speed in m/s; 0 for a perfectly still
	// body, small (<0.1) for seated fidgeting, ≈1.4 when walking.
	Speed float64
}

// Link is a directed sensor pair; stream k carries packets from sensor TX
// to sensor RX.
type Link struct {
	TX, RX int
}

// String renders the link in the paper's "di-dj" notation (1-based).
func (l Link) String() string { return fmt.Sprintf("d%d-d%d", l.TX+1, l.RX+1) }

// Network evaluates the propagation model for a fixed sensor deployment.
// It is not safe for concurrent use; the simulator drives it from a single
// goroutine.
//
// The hot state is laid out struct-of-arrays: link geometry is
// precomputed once at construction into flat per-link columns, and the
// per-tick body effects (shadowing attenuation, motion-noise standard
// deviation) are computed once per directed link into reusable scratch
// columns and shared across that link's subcarrier streams. The
// per-stream loop then touches only contiguous float64 slices.
type Network struct {
	cfg     Config
	sensors []geom.Point

	// Per-directed-link geometry columns (index: link, not stream),
	// precomputed at construction. d = B − A is the segment direction;
	// l2 = d·d its squared length; the values replicate bit for bit what
	// geom.Segment.DistToPoint and ExcessPathLength would recompute.
	linkAX, linkAY []float64
	linkBX, linkBY []float64
	linkDX, linkDY []float64
	linkL2         []float64
	linkLen        []float64
	// pairRev[li] is the directed link with the same sensor pair and the
	// opposite direction. Body shadowing is bitwise-symmetric in the
	// direction (IEEE addition commutes and Hypot is sign-symmetric), so
	// each pair computes it once and the reverse link copies it.
	pairRev []int

	// Per-tick scratch columns, one value per directed link: the body
	// shadowing attenuation and motion-noise std of the current tick
	// (the per-tick body→link cache). Reused by every tick with zero
	// allocation.
	attenScratch  []float64
	motionScratch []float64

	// invQuant is 1/QuantStepDB when quantisation is enabled, so the
	// per-sample quantisation divides once per network, not per sample.
	invQuant float64

	streamLink  []int  // stream index → directed link index
	streamLinks []Link // Links() expansion, computed once
	base        []float64
	ar          []float64
	src         *rng.Source

	// Interference burst state: remaining ticks and per-stream
	// participation mask for the current burst.
	burstTicks int
	burstMask  []bool

	dt float64 // tick duration in seconds, needed for burst scheduling
}

// NewNetwork builds a network over the given sensor positions. dt is the
// simulation tick in seconds. It returns an error when fewer than two
// sensors are supplied, since no link exists then.
func NewNetwork(cfg Config, sensors []geom.Point, dt float64, src *rng.Source) (*Network, error) {
	if len(sensors) < 2 {
		return nil, fmt.Errorf("rf: need at least 2 sensors, got %d", len(sensors))
	}
	if dt <= 0 {
		return nil, fmt.Errorf("rf: tick duration must be positive, got %v", dt)
	}
	cfg = cfg.withDefaults()
	m := len(sensors)
	pts := make([]geom.Point, m)
	copy(pts, sensors)

	var links []Link
	for tx := 0; tx < m; tx++ {
		for rx := 0; rx < m; rx++ {
			if tx != rx {
				links = append(links, Link{TX: tx, RX: rx})
			}
		}
	}
	nl := len(links)
	streams := nl * cfg.Subcarriers
	n := &Network{
		cfg:           cfg,
		sensors:       pts,
		linkAX:        make([]float64, nl),
		linkAY:        make([]float64, nl),
		linkBX:        make([]float64, nl),
		linkBY:        make([]float64, nl),
		linkDX:        make([]float64, nl),
		linkDY:        make([]float64, nl),
		linkL2:        make([]float64, nl),
		linkLen:       make([]float64, nl),
		pairRev:       make([]int, nl),
		attenScratch:  make([]float64, nl),
		motionScratch: make([]float64, nl),
		streamLink:    make([]int, 0, streams),
		streamLinks:   make([]Link, 0, streams),
		base:          make([]float64, 0, streams),
		ar:            make([]float64, streams),
		src:           src,
		burstMask:     make([]bool, streams),
		dt:            dt,
	}
	// linkIndex maps a directed pair to its position in the tx-major,
	// rx-ascending link order built above.
	linkIndex := func(tx, rx int) int {
		i := tx*(m-1) + rx
		if rx > tx {
			i--
		}
		return i
	}
	for li, l := range links {
		seg := geom.Segment{A: pts[l.TX], B: pts[l.RX]}
		n.linkAX[li], n.linkAY[li] = seg.A.X, seg.A.Y
		n.linkBX[li], n.linkBY[li] = seg.B.X, seg.B.Y
		dvec := seg.B.Sub(seg.A)
		n.linkDX[li], n.linkDY[li] = dvec.X, dvec.Y
		n.linkL2[li] = dvec.Dot(dvec)
		n.linkLen[li] = seg.Length()
		n.pairRev[li] = linkIndex(l.RX, l.TX)

		d := n.linkLen[li]
		if d < 0.1 {
			d = 0.1 // sensors essentially co-located; avoid log blow-up
		}
		pl := cfg.RefLossDB + 10*cfg.PathLossExp*math.Log10(d)
		for s := 0; s < cfg.Subcarriers; s++ {
			shadow := src.Normal(0, cfg.ShadowStdDB)
			n.streamLink = append(n.streamLink, li)
			n.streamLinks = append(n.streamLinks, l)
			n.base = append(n.base, cfg.TxPowerDBm-pl+shadow)
		}
	}
	if cfg.QuantStepDB > 0 {
		n.invQuant = 1 / cfg.QuantStepDB
	}
	return n, nil
}

// NumStreams returns the number of RSSI streams, m·(m−1)·Subcarriers.
func (n *Network) NumStreams() int { return len(n.base) }

// Links returns the directed links in stream order. With Subcarriers > 1
// each link repeats Subcarriers times consecutively. The expansion is
// computed once at construction; each call returns a fresh copy.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.streamLinks))
	copy(out, n.streamLinks)
	return out
}

// Sensors returns a copy of the sensor positions.
func (n *Network) Sensors() []geom.Point {
	out := make([]geom.Point, len(n.sensors))
	copy(out, n.sensors)
	return out
}

// Config returns the effective (defaults-filled) configuration.
func (n *Network) Config() Config { return n.cfg }

// bodyAttenuation returns the deterministic shadowing loss (dB) the bodies
// inflict on the given link segment. It is the scalar reference
// implementation of the model; the hot path computes the same quantity
// per link in tickEffects.
func (n *Network) bodyAttenuation(seg geom.Segment, bodies []Body) float64 {
	var atten float64
	for i := range bodies {
		excess := seg.ExcessPathLength(bodies[i].Pos)
		atten += n.cfg.BodyAttenDB * math.Exp(-excess/n.cfg.BodyEllipseM)
	}
	// Two bodies on the same link shadow it more, but the effect
	// saturates; cap at 1.5× the single-body maximum.
	limit := 1.5 * n.cfg.BodyAttenDB
	if atten > limit {
		atten = limit
	}
	return atten
}

// motionNoiseStd returns the standard deviation of the motion-induced
// perturbation on the link for the given bodies. Like bodyAttenuation it
// is the scalar reference implementation mirrored by tickEffects.
func (n *Network) motionNoiseStd(seg geom.Segment, bodies []Body) float64 {
	var variance float64
	for i := range bodies {
		if bodies[i].Speed <= 0 {
			continue
		}
		dist, _ := seg.DistToPoint(bodies[i].Pos)
		sd := n.cfg.MotionNoiseStdDB * bodies[i].Speed * math.Exp(-dist/n.cfg.MotionRangeM)
		variance += sd * sd
	}
	return math.Sqrt(variance)
}

// stepBursts advances the interference burst process by one tick and
// reports whether a burst is active.
func (n *Network) stepBursts() bool {
	if n.burstTicks > 0 {
		n.burstTicks--
		return true
	}
	// Poisson arrivals: probability of a burst starting this tick.
	p := n.cfg.InterferencePerHour * n.dt / 3600
	if !n.src.Bool(p) {
		return false
	}
	dur := n.src.Exponential(n.cfg.InterferenceMeanSec)
	n.burstTicks = int(dur / n.dt)
	if n.burstTicks < 1 {
		n.burstTicks = 1
	}
	// Each burst hits a random ~third of the streams (co-channel
	// interference is frequency- and position-selective).
	for i := range n.burstMask {
		n.burstMask[i] = n.src.Bool(1.0 / 3.0)
	}
	return true
}

// tickEffects fills the per-link scratch columns for one tick: the
// shadowing attenuation and motion-noise standard deviation every
// directed link sees from the current body set. This is the per-tick
// body→link cache — each value is computed once per link (once per
// *pair* for the attenuation, which is bitwise-symmetric in the link
// direction) and shared across the link's subcarrier streams.
//
// The arithmetic replicates bodyAttenuation and motionNoiseStd
// operation for operation, so the outputs are bit-identical to the
// per-stream scalar path: sums accumulate in body order, the
// closest-point projection evaluates exactly like
// geom.Segment.DistToPoint, and the saturation cap applies after the
// sum.
func (n *Network) tickEffects(bodies []Body) {
	atten, motion := n.attenScratch, n.motionScratch
	if len(bodies) == 0 {
		for li := range atten {
			atten[li] = 0
			motion[li] = 0
		}
		return
	}
	attenDB, ellipse := n.cfg.BodyAttenDB, n.cfg.BodyEllipseM
	motionStd, motionRange := n.cfg.MotionNoiseStdDB, n.cfg.MotionRangeM
	limit := 1.5 * attenDB
	for li := range atten {
		rev := n.pairRev[li]
		shareAtten := rev < li // reverse direction already computed it
		ax, ay := n.linkAX[li], n.linkAY[li]
		bx, by := n.linkBX[li], n.linkBY[li]
		dx, dy := n.linkDX[li], n.linkDY[li]
		l2, length := n.linkL2[li], n.linkLen[li]

		var attenSum, variance float64
		for i := range bodies {
			p := bodies[i].Pos
			if !shareAtten {
				// Excess path length of A→body→B over A→B, exactly as
				// geom.Segment.ExcessPathLength computes it.
				excess := math.Hypot(ax-p.X, ay-p.Y) + math.Hypot(p.X-bx, p.Y-by) - length
				attenSum += attenDB * math.Exp(-excess/ellipse)
			}
			if bodies[i].Speed > 0 {
				// Distance to the segment, exactly as
				// geom.Segment.DistToPoint computes it.
				var dist float64
				if l2 == 0 {
					dist = math.Hypot(ax-p.X, ay-p.Y)
				} else {
					t := ((p.X-ax)*dx + (p.Y-ay)*dy) / l2
					t = math.Max(0, math.Min(1, t))
					dist = math.Hypot(ax+dx*t-p.X, ay+dy*t-p.Y)
				}
				sd := motionStd * bodies[i].Speed * math.Exp(-dist/motionRange)
				variance += sd * sd
			}
		}
		if shareAtten {
			atten[li] = atten[rev]
		} else {
			// Two bodies on the same link shadow it more, but the effect
			// saturates; cap at 1.5× the single-body maximum.
			if attenSum > limit {
				attenSum = limit
			}
			atten[li] = attenSum
		}
		motion[li] = math.Sqrt(variance)
	}
}

// sampleTick advances the model one tick, writing one RSSI value per
// stream into out (length NumStreams). The RNG draw order is identical
// to the historical per-stream scalar loop: the burst process first,
// then per stream the AR innovation, the conditional motion draw, and
// the conditional burst draw.
func (n *Network) sampleTick(bodies []Body, out []float64) {
	burst := n.stepBursts()
	n.tickEffects(bodies)

	arCoef := n.cfg.NoiseAR
	innovation := n.cfg.NoiseStdDB * math.Sqrt(1-arCoef*arCoef)
	quant, invQuant := n.cfg.QuantStepDB, n.invQuant
	minR, maxR := n.cfg.MinRSSIDBm, n.cfg.MaxRSSIDBm
	atten, motion := n.attenScratch, n.motionScratch
	streamLink, ar, base := n.streamLink, n.ar, n.base

	for k := range base {
		li := streamLink[k]
		rssi := base[k] - atten[li]

		// Stationary correlated measurement noise.
		ar[k] = arCoef*ar[k] + n.src.Normal(0, innovation)
		rssi += ar[k]

		// Motion-induced perturbation (white, per-tick).
		if sd := motion[li]; sd > 0 {
			rssi += n.src.Normal(0, sd)
		}

		// Interference burst.
		if burst && n.burstMask[k] {
			rssi += n.src.Normal(0, n.cfg.InterferenceStdDB)
		}

		// Receiver quantisation (with a fast path for the 1 dB default,
		// where scaling by the step is an exact no-op) and clamping.
		// quant == 0 means quantisation was explicitly disabled
		// (Config.QuantStepDB = Disable); other steps multiply by the
		// precomputed reciprocal instead of dividing per sample.
		switch {
		case quant == 1:
			rssi = math.Round(rssi)
		case quant > 0:
			rssi = math.Round(rssi*invQuant) * quant
		}
		if rssi < minR {
			rssi = minR
		}
		if rssi > maxR {
			rssi = maxR
		}
		out[k] = rssi
	}
}

// Sample advances the model one tick and writes the RSSI of every stream
// into out, which must have length NumStreams. The same bodies slice may
// be reused across calls. For many ticks at once, SampleBlock amortises
// the per-tick overhead into a columnar buffer.
func (n *Network) Sample(bodies []Body, out []float64) {
	if len(out) != n.NumStreams() {
		panic(fmt.Sprintf("rf: Sample output length %d, want %d", len(out), n.NumStreams()))
	}
	n.sampleTick(bodies, out)
}

// SampleBlock advances the model len(bodies) ticks, with bodies[t]
// holding the body set of tick t, and fills out with one row per tick.
// The output is bit-identical to len(bodies) consecutive Sample calls —
// the RNG draw order is preserved exactly — but the inner loops run over
// the block's contiguous columnar buffer with zero per-tick allocation.
func (n *Network) SampleBlock(bodies [][]Body, out *Block) {
	out.Reset(len(bodies), n.NumStreams())
	for t := range bodies {
		n.sampleTick(bodies[t], out.Row(t))
	}
}
