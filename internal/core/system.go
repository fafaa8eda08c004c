// Package core assembles the paper's modules (KMA, MD and RE) in front of
// the decision automaton (control.Controller) into a single streaming
// System — the artefact a deployment would actually run. The System
// consumes one tick of RSSI samples at a time plus asynchronous
// keyboard/mouse notifications, passes through the paper's two phases (a
// training phase that auto-labels variation windows from workstation idle
// times, then an online phase driven by the trained classifier), and
// emits the controller's actions: alert-state transitions, screensaver
// activations and deauthentications.
package core

import (
	"errors"
	"fmt"

	"fadewich/internal/control"
	"fadewich/internal/kma"
	"fadewich/internal/md"
	"fadewich/internal/re"
	"fadewich/internal/svm"
)

// Config parameterises a System.
type Config struct {
	// DT is the RSSI sampling period in seconds.
	DT float64
	// Streams is the number of RSSI streams (m·(m−1) for m sensors).
	Streams int
	// Workstations is k, the number of monitored workstations.
	Workstations int
	// MD configures movement detection.
	MD md.Config
	// Feat configures signature extraction; Feat.TDeltaSec is t∆.
	Feat re.FeatureConfig
	// SVM configures the classifier trained at the end of the training
	// phase.
	SVM svm.Config
	// Params are the control-rule timing constants.
	Params control.Params
	// Label configures training-phase auto-labelling.
	Label re.LabelConfig
	// MinTrainingSamples is the smallest labelled sample count Train will
	// accept (default 10).
	MinTrainingSamples int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.DT == 0 {
		c.DT = 0.2
	}
	c.Params = c.Params.WithDefaults()
	if c.Feat.TDeltaSec == 0 {
		c.Feat = re.DefaultFeatureConfig()
	}
	if c.MinTrainingSamples == 0 {
		c.MinTrainingSamples = 10
	}
	return c
}

// Phase is the system's lifecycle stage.
type Phase int

// The two lifecycle phases of Section IV-D: during Training the system
// collects auto-labelled samples; during Online it applies the rules.
const (
	PhaseTraining Phase = iota + 1
	PhaseOnline
)

// Action and ActionType are the controller's outputs, re-exported for
// callers that drive a System.
type (
	Action     = control.Action
	ActionType = control.ActionType
)

// The emitted action types (see control.ActionType).
const (
	ActionAlertEnter     = control.ActionAlertEnter
	ActionAlertExit      = control.ActionAlertExit
	ActionScreensaverOn  = control.ActionScreensaverOn
	ActionDeauthenticate = control.ActionDeauthenticate
)

// ErrNotTraining is returned by FinishTraining outside the training phase.
var ErrNotTraining = errors.New("core: system is not in the training phase")

// ErrTooFewSamples is returned when training ends with too few labelled
// samples.
var ErrTooFewSamples = errors.New("core: too few labelled training samples")

// System is the streaming FADEWICH instance. Not safe for concurrent use;
// drive it from one goroutine and deliver input notifications between
// Tick calls.
type System struct {
	cfg   Config
	det   *md.Detector
	clf   *re.Classifier
	ctl   *control.Controller
	phase Phase

	now  float64
	tick int

	// sig captures the current window's first t∆ ticks, [t1, t1+t∆],
	// the only samples recognition reads: row i (tick winStart+i)
	// occupies sig[i*Streams:(i+1)*Streams], and sigRows rows are held.
	sig     []float64
	sigRows int

	// Variation-window tracking. A window closes only after gapTicks of
	// continuous normal readings, mirroring md.Run's gap merging so the
	// online system sees the same windows as the offline analysis.
	inWindow    bool
	winStart    int
	lastAnom    int
	tDeltaTicks int
	gapTicks    int
	// maxSampleTicks bounds a training window: one that closes this many
	// ticks or more after its start (t∆ + 30 s + 4 ticks; overlapping
	// movements, long walks) yields no sample. The bound decides which
	// windows train the classifier, so moving it moves every output.
	maxSampleTicks int

	// inputLog keeps each workstation's input times for training-phase
	// auto-labelling, only as far back as the labeller can still read
	// (see NotifyInput). Only training appends to it, and going online
	// releases it.
	inputLog [][]float64

	// Training-phase sample store. pending holds windows whose features
	// are extracted but whose label cannot be resolved yet: the
	// auto-labeller needs to observe QuietAfterSec/ReturnSlackSec of
	// input behaviour beyond the window end. Going online releases
	// samples and keeps their count in trained.
	samples []re.Sample
	pending []pendingSample
	trained int

	actions []Action // reused buffer returned by Tick
	// interTick collects actions emitted between ticks (input
	// notifications cancelling alerts); they are delivered with the next
	// Tick's result instead of being lost when the buffer resets.
	interTick []Action
}

// pendingSample is a training window awaiting label resolution.
type pendingSample struct {
	window    md.Window
	features  []float64
	resolveAt float64
}

// NewSystem builds a System in the training phase.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Streams < 1 {
		return nil, fmt.Errorf("core: need at least one stream, got %d", cfg.Streams)
	}
	if cfg.Workstations < 1 {
		return nil, fmt.Errorf("core: need at least one workstation, got %d", cfg.Workstations)
	}
	det, err := md.NewDetector(cfg.MD, cfg.Streams, cfg.DT)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tDeltaTicks := int(cfg.Params.TDeltaSec / cfg.DT)
	gapSec := cfg.MD.MergeGapSec
	if gapSec == 0 {
		gapSec = md.DefaultConfig().MergeGapSec
	}
	gapTicks := int(gapSec / cfg.DT)
	return &System{
		cfg:            cfg,
		det:            det,
		ctl:            control.NewController(cfg.Params, cfg.DT, cfg.Workstations),
		phase:          PhaseTraining,
		sig:            make([]float64, tDeltaTicks*cfg.Streams),
		tDeltaTicks:    tDeltaTicks,
		gapTicks:       gapTicks,
		maxSampleTicks: tDeltaTicks + int(30/cfg.DT) + 4,
		inputLog:       make([][]float64, cfg.Workstations),
	}, nil
}

// Phase returns the current lifecycle phase.
func (s *System) Phase() Phase { return s.phase }

// Now returns the system clock (seconds since start).
func (s *System) Now() float64 { return s.now }

// TrainingSamples returns how many labelled samples have been collected.
func (s *System) TrainingSamples() int { return s.trained + len(s.samples) }

// NotifyInput records a keyboard/mouse event at workstation ws at the
// current system time. It also (re-)authenticates the session, since a
// user typing at a locked workstation is logging in.
func (s *System) NotifyInput(ws int) {
	if ws < 0 || ws >= len(s.inputLog) {
		return
	}
	if s.phase == PhaseTraining {
		s.logInput(ws)
	}
	s.interTick = s.ctl.Input(ws, s.now, s.interTick)
}

// logInput appends the current time to workstation ws's input log and
// drops the inputs no window still to be labelled can query.
// re.AutoLabel, for a window starting at t1, reads the last input at
// or before t1+IdleSlackSec and the inputs after that and after t1. No
// such window starts before the first pending window, or else the open
// one, or else the next tick. So the log keeps every input from that
// start (less a negative IdleSlackSec) on, and the last one before it.
// Each input is dropped once, so the trim costs O(1) amortised, and the
// log stays in one array.
func (s *System) logInput(ws int) {
	from := s.now
	switch {
	case len(s.pending) > 0:
		from = float64(s.pending[0].window.StartTick) * s.cfg.DT
	case s.inWindow:
		from = float64(s.winStart) * s.cfg.DT
	}
	from += min(0, s.cfg.Label.IdleSlackSec)
	log := append(s.inputLog[ws], s.now)
	k := 0
	for k+1 < len(log) && log[k+1] < from {
		k++
	}
	if k > 0 {
		log = log[:copy(log, log[k:])]
	}
	s.inputLog[ws] = log
}

// Authenticated reports whether workstation ws currently has an active
// session.
func (s *System) Authenticated(ws int) bool { return s.ctl.Authenticated(ws) }

// Tick consumes one tick of RSSI samples (one per stream) and returns the
// actions emitted during this tick. The returned slice is reused by the
// next call — copy it to retain.
func (s *System) Tick(rssi []float64) []Action {
	if len(rssi) != s.cfg.Streams {
		panic(fmt.Sprintf("core: Tick got %d samples, want %d", len(rssi), s.cfg.Streams))
	}
	s.actions = append(s.actions[:0], s.interTick...)
	s.interTick = s.interTick[:0]
	s.tick++
	s.now = float64(s.tick) * s.cfg.DT

	state, _ := s.det.Push(rssi)
	anomalous := state == md.StateAnomalous

	switch {
	case anomalous:
		if !s.inWindow {
			s.inWindow = true
			s.winStart = s.tick
			s.sigRows = 0
		}
		s.lastAnom = s.tick
	case s.inWindow && s.tick-s.lastAnom > s.gapTicks:
		s.endWindow()
	}
	if s.inWindow && s.sigRows < s.tDeltaTicks {
		copy(s.sig[s.sigRows*s.cfg.Streams:], rssi)
		s.sigRows++
	}

	win := -1
	if s.inWindow {
		win = s.tick - s.winStart
	}
	s.actions = s.ctl.Step(s.now, win, s.classify, s.actions)

	if s.phase == PhaseTraining {
		s.resolvePending()
	}
	return s.actions
}

// endWindow closes the current variation window and, in the training
// phase, tries to label it. The window's effective end is the last
// anomalous tick, not the closing tick (which trails by the merge gap).
func (s *System) endWindow() {
	s.inWindow = false
	if s.phase == PhaseTraining && s.lastAnom+1-s.winStart >= s.tDeltaTicks {
		s.collectTrainingSample()
	}
}

// classify is Rule 1's query, made when the current window's duration
// hits t∆. It returns 0 (w0, no deauthentication) in training, where
// labelling waits for the window end and its idle evidence.
func (s *System) classify() int {
	if s.phase != PhaseOnline || s.clf == nil {
		return 0
	}
	return s.clf.Predict(s.extractSignature())
}

// extractSignature computes the feature vector of the captured
// [t1, t1+t∆] rows.
func (s *System) extractSignature() []float64 {
	streams := s.cfg.Streams
	window := make([][]float64, streams)
	for k := range window {
		w := make([]float64, s.sigRows)
		for i := range w {
			w[i] = s.sig[i*streams+k]
		}
		window[k] = w
	}
	return re.ExtractWindow(window, s.cfg.DT, s.cfg.Feat)
}

// collectTrainingSample extracts the signature of the window that just
// ended and queues it for label resolution once enough post-window input
// behaviour has been observed (see re.LabelConfig.QuietAfterSec).
func (s *System) collectTrainingSample() {
	if s.tick-s.winStart >= s.maxSampleTicks {
		return
	}
	label := s.cfg.Label
	wait := label.QuietAfterSec
	if label.ReturnSlackSec > wait {
		wait = label.ReturnSlackSec
	}
	if wait == 0 {
		wait = 30
	}
	s.pending = append(s.pending, pendingSample{
		window:    md.Window{StartTick: s.winStart, EndTick: s.lastAnom + 1},
		features:  s.extractSignature(),
		resolveAt: s.now + wait,
	})
}

// resolvePending labels any queued training windows whose observation
// horizon has elapsed, discarding ambiguous ones.
func (s *System) resolvePending() {
	if len(s.pending) == 0 || s.pending[0].resolveAt > s.now {
		return
	}
	tracker := s.trackerView()
	kept := s.pending[:0]
	for _, p := range s.pending {
		if p.resolveAt > s.now {
			kept = append(kept, p)
			continue
		}
		if label, ok := re.AutoLabel(p.window, s.cfg.DT, tracker, s.cfg.Label); ok {
			s.samples = append(s.samples, re.Sample{
				Features:  p.features,
				Label:     label,
				StartTick: p.window.StartTick,
			})
		}
	}
	s.pending = kept
}

// trackerView gives the auto-labeller a fresh kma.Tracker over the
// per-workstation input logs, which are sorted, so it reads them in
// place.
func (s *System) trackerView() *kma.Tracker {
	return kma.NewTracker(s.inputLog)
}

// FinishTraining trains the classifier on the collected samples and
// switches to the online phase. It returns ErrTooFewSamples when fewer
// than MinTrainingSamples were collected, leaving the system in training.
func (s *System) FinishTraining() error {
	if s.phase != PhaseTraining {
		return ErrNotTraining
	}
	// Resolve any matured windows still queued; immature ones (too close
	// to the end of the training data) are dropped rather than risk a
	// wrong label.
	s.resolvePending()
	s.pending = nil
	if len(s.samples) < s.cfg.MinTrainingSamples {
		return fmt.Errorf("%w: have %d, want at least %d",
			ErrTooFewSamples, len(s.samples), s.cfg.MinTrainingSamples)
	}
	clf, err := re.Train(s.samples, s.cfg.SVM)
	if err != nil {
		return fmt.Errorf("core: training classifier: %w", err)
	}
	s.AdoptClassifier(clf)
	return nil
}

// AdoptClassifier installs an externally trained classifier (e.g. from
// supervisor-labelled data) and switches to the online phase. The input
// logs and labelled samples only training reads are released;
// TrainingSamples still reports the samples' count.
func (s *System) AdoptClassifier(clf *re.Classifier) {
	s.clf = clf
	s.phase = PhaseOnline
	for i := range s.inputLog {
		s.inputLog[i] = nil
	}
	s.trained += len(s.samples)
	s.samples = nil
}
