package main

import (
	"fmt"
	"math"
	"strconv"

	"fadewich/internal/core"
	"fadewich/internal/kma"
	"fadewich/internal/md"
	"fadewich/internal/office"
	"fadewich/internal/rng"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
)

// Every workload replays a few simulated offices, generated from the
// run's seed before any clock starts; fleet office i replays simulated
// office i mod simOffices, so a run's action rate is an average over
// several simulated days rather than one day's draw. Day 0 is the
// training day: every office replays it from tick 0, with no phase
// offset (a phase-shifted training day starved some offices of labelled
// samples and /v1/train answered 409), but office i stops
// i mod trainStagger ticks before its end. Day 1 is the online day:
// office i replays it from its own seeded phase offset, wrapping at the
// end of the day, so alerts spread across the run instead of arriving in
// lock-step.

// Simulated-day shape. A 20-minute day at the paper's 5 Hz is 6000
// ticks. Eight short excursions per user and day make a busy office:
// about 1.3 actions per hundred office-ticks, so a 30 s serve-paced run
// collects the 10,000 samples its p999 needs, and every office collects
// well over minTrainingSamples labelled samples on its training day.
// Every office runs 4 sensors of the paper layout (12 streams).
const (
	daySeconds         = 1200
	tickSec            = 0.2
	minTrainingSamples = 3
	simOffices         = 4
	sensors            = 4
)

// trainStagger is the number of distinct training-day lengths. The
// movement detector closes a profile batch every BatchSize ticks and
// refits its threshold every RefitEvery accepted batches, counting from
// the office's first tick. Offices whose training days were equally
// long would close their batches and refit on the same online tick, and
// those lock-step refits (about 140 µs per office against well under
// 1 µs for an ordinary tick) would set the latency tail. Shortening
// office i's training day by i mod trainStagger ticks spreads them over
// the whole cycle, as in a fleet whose offices came online at different
// times. Every office runs the detector's defaults.
var trainStagger = md.DefaultConfig().BatchSize * md.DefaultConfig().RefitEvery

// day is one simulated day restricted to a workload's sensor subset.
type day struct {
	ticks int
	// rows[t] holds tick t's RSSI samples; rowJSON[t] is the same row
	// rendered as the JSON array a tick line carries.
	rows    [][]float64
	rowJSON [][]byte
	// inputs[t] lists the workstations notified before tick t, in the
	// order they are delivered.
	inputs [][]int
}

// officeDays is one simulated office: its training and online days.
type officeDays struct {
	train, online day
}

// dataset is the generated input every office of a workload replays.
type dataset struct {
	dt float64
	// trainTicks is the length of every simulated training day.
	trainTicks int
	offices    []officeDays
}

// generate simulates simOffices offices. Whether a simulated training
// day can train a classifier depends on the draw — a day whose labelled
// windows all carry one label cannot — so the simulation seed steps
// deterministically from the run seed, skipping days that do not train.
// The same run seed always gives the same dataset.
func generate(seed uint64) (*dataset, error) {
	cfg, err := officeConfig()
	if err != nil {
		return nil, err
	}
	ds := &dataset{dt: tickSec}
	for attempt := uint64(0); len(ds.offices) < simOffices; attempt++ {
		if attempt == 4*simOffices {
			return nil, fmt.Errorf("generate dataset: only %d of %d simulated offices from seed %d train a classifier", len(ds.offices), simOffices, seed)
		}
		od, err := simulate(seed + attempt*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, err
		}
		if trainable(od, cfg, od.train.ticks-(trainStagger-1)) {
			ds.offices = append(ds.offices, *od)
		}
	}
	ds.trainTicks = ds.offices[0].train.ticks
	return ds, nil
}

// officeDefaults is the fleet spec's defaults block: every office runs
// the same configuration.
func officeDefaults() serve.OfficeSpec {
	return serve.OfficeSpec{Layout: "paper", Sensors: sensors, DT: tickSec, MinTrainingSamples: minTrainingSamples}
}

// officeConfig resolves the System configuration every office runs.
func officeConfig() (core.Config, error) {
	spec := serve.Spec{Defaults: officeDefaults(), Offices: []serve.OfficeSpec{{Name: "probe"}}}
	resolved, err := spec.Resolve()
	if err != nil {
		return core.Config{}, err
	}
	return resolved[0].Config, nil
}

// trainable reports whether an office fed the first n ticks of the
// training day can go online. The labelled samples of a shorter day are
// a subset of a longer day's, so a day that trains at the shortest
// staggered length trains at every length.
func trainable(od *officeDays, cfg core.Config, n int) bool {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return false
	}
	for t, row := range od.train.rows[:n] {
		for _, ws := range od.train.inputs[t] {
			sys.NotifyInput(ws)
		}
		sys.Tick(row)
	}
	return sys.FinishTraining() == nil
}

// simulate generates one office's two days from one simulation seed.
func simulate(seed uint64) (*officeDays, error) {
	cfg := sim.Config{Days: 2, Seed: seed, DT: tickSec, Layout: office.Paper()}
	cfg.Agent.DaySeconds = daySeconds
	cfg.Agent.MorningJitterSec = 90
	cfg.Agent.DeparturesPerDay = 8
	cfg.Agent.OutsideMeanSec = 60
	ds, err := sim.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	subset, err := ds.Layout.SensorSubset(sensors)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	streams := ds.StreamSubset(subset)
	src := rng.New(seed ^ 0xfade)
	out := &officeDays{}
	for i, d := range []*day{&out.train, &out.online} {
		tr := ds.Days[i]
		inputs := kma.GenerateInputs(tr.InputSpans, tr.Events, kma.InputModel{}, src.Split())
		*d = newDay(tr, streams, inputs)
	}
	return out, nil
}

// newDay extracts the stream subset of a trace and bins the input times
// by the tick they precede: an input at time x is delivered before the
// first tick t with x <= (t+1)·DT, the order the simulators' replay
// loops use (workstations ascending, each in time order).
func newDay(tr *sim.Trace, streams []int, inputs [][]float64) day {
	d := day{
		ticks:   tr.Ticks,
		rows:    make([][]float64, tr.Ticks),
		rowJSON: make([][]byte, tr.Ticks),
		inputs:  make([][]int, tr.Ticks),
	}
	for t := range d.rows {
		row := make([]float64, len(streams))
		js := []byte{'['}
		for j, k := range streams {
			row[j] = float64(tr.Streams[k][t])
			if j > 0 {
				js = append(js, ',')
			}
			js = strconv.AppendFloat(js, row[j], 'g', -1, 64)
		}
		d.rows[t] = row
		d.rowJSON[t] = append(js, ']')
	}
	for ws, times := range inputs {
		for _, x := range times {
			if t := inputTick(x, tr.DT); t < tr.Ticks {
				d.inputs[t] = append(d.inputs[t], ws)
			}
		}
	}
	return d
}

// inputTick returns the first tick t whose due time (t+1)·dt is at or
// after x.
func inputTick(x, dt float64) int {
	t := int(math.Ceil(x/dt)) - 1
	if t < 0 {
		t = 0
	}
	for t > 0 && float64(t)*dt >= x {
		t--
	}
	for float64(t+1)*dt < x {
		t++
	}
	return t
}

// plan is the tick schedule of one workload run: which day tick every
// office sends at every training window and online slot.
type plan struct {
	ds      *dataset
	names   []string // office names, in spec order (spec order = fleet ID)
	train   []int    // per-office training-day length in ticks
	offsets []int    // per-office phase offset into the online day
	// trainWindow is the ticks per office of one training POST; perSlot
	// the ticks per office of one online slot.
	trainWindow int
	perSlot     int
}

func newPlan(ds *dataset, seed uint64, offices, trainWindow, perSlot int) *plan {
	p := &plan{ds: ds, trainWindow: trainWindow, perSlot: perSlot}
	src := rng.New(seed ^ 0x0ff5e7)
	for i := 0; i < offices; i++ {
		p.names = append(p.names, fmt.Sprintf("o%03d", i))
		p.train = append(p.train, ds.trainTicks-i%trainStagger)
		p.offsets = append(p.offsets, src.Intn(p.days(i).online.ticks))
	}
	return p
}

// days returns the simulated office fleet office o replays.
func (p *plan) days(o int) *officeDays {
	return &p.ds.offices[o%len(p.ds.offices)]
}

// trainWindows returns the number of training POSTs (the last may be
// short).
func (p *plan) trainWindows() int {
	return (p.ds.trainTicks + p.trainWindow - 1) / p.trainWindow
}

// window describes one POST's worth of ticks: up to n ticks per office,
// where office o's step-th tick is tick t of day d = at(o, step), sent
// only if ok (an office's training day may end before the window does).
type window struct {
	n  int
	at func(o, step int) (d *day, t int, ok bool)
}

func (p *plan) trainingWindow(w int) window {
	from := w * p.trainWindow
	return window{n: p.trainWindow, at: func(o, step int) (*day, int, bool) {
		t := from + step
		return &p.days(o).train, t, t < p.train[o]
	}}
}

func (p *plan) onlineSlot(s int) window {
	base := s * p.perSlot
	return window{n: p.perSlot, at: func(o, step int) (*day, int, bool) {
		d := &p.days(o).online
		return d, (p.offsets[o] + base + step) % d.ticks, true
	}}
}

// appendBody renders the window's ticks for the given offices (indices
// into p.names) as tick JSONL, step by step and office by office, each
// tick preceded by the input lines due before it. It returns the body
// and the number of tick and input lines.
func (p *plan) appendBody(buf []byte, w window, offices []int) (body []byte, ticks, inputs int) {
	for step := 0; step < w.n; step++ {
		for _, o := range offices {
			d, t, ok := w.at(o, step)
			if !ok {
				continue
			}
			for _, ws := range d.inputs[t] {
				buf = append(buf, `{"office":"`...)
				buf = append(buf, p.names[o]...)
				buf = append(buf, `","input":`...)
				buf = strconv.AppendInt(buf, int64(ws), 10)
				buf = append(buf, "}\n"...)
				inputs++
			}
			buf = append(buf, `{"office":"`...)
			buf = append(buf, p.names[o]...)
			buf = append(buf, `","rssi":`...)
			buf = append(buf, d.rowJSON[t]...)
			buf = append(buf, "}\n"...)
			ticks++
		}
	}
	return buf, ticks, inputs
}

// push feeds the window into an in-process ingestor exactly as the
// daemon's JSONL parser does: the same Push/PushInput sequence per
// office. Office o is fleet ID o.
func (p *plan) push(ing *stream.Ingestor, w window, offices []int) error {
	for step := 0; step < w.n; step++ {
		for _, o := range offices {
			d, t, ok := w.at(o, step)
			if !ok {
				continue
			}
			for _, ws := range d.inputs[t] {
				if err := ing.PushInput(o, ws); err != nil {
					return err
				}
			}
			if err := ing.Push(o, d.rows[t]); err != nil {
				return err
			}
		}
	}
	return nil
}

// allOffices returns 0..n-1.
func allOffices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
