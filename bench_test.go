// Benchmarks: one per table and figure of the paper's evaluation, plus
// ablation benches for the model's design choices (shadowing ellipse, MD
// window, profile update, SVM kernel, feature families) and raw
// throughput benches for the hot paths (RF sampling, MD ticks, SVM
// training).
//
// The experiment benches run against a shared reduced dataset (two
// 1.5-hour days) so `go test -bench=.` finishes in minutes; the cmd/
// fadewich-eval binary regenerates the full-scale numbers.
package fadewich_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/eval"
	"fadewich/internal/geom"
	"fadewich/internal/md"
	"fadewich/internal/re"
	"fadewich/internal/rf"
	"fadewich/internal/rng"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
	"fadewich/internal/svm"
)

var (
	benchOnce sync.Once
	benchDS   *sim.Dataset
	benchH    *eval.Harness
	benchErr  error
)

func benchHarness(b *testing.B) *eval.Harness {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sim.Config{Days: 2, Seed: 1234}
		cfg.Agent.DaySeconds = 5400
		cfg.Agent.MorningJitterSec = 180
		cfg.Agent.DeparturesPerDay = 4
		cfg.Agent.OutsideMeanSec = 180
		benchDS, benchErr = sim.Generate(cfg)
		if benchErr == nil {
			benchH, benchErr = eval.NewHarness(benchDS, eval.Options{Seed: 1234})
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// --- Experiment regeneration benches, one per table/figure ---

func BenchmarkTable2EventCollection(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if rows := h.Table2(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig2StdDevDistribution(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7FMeasureSweep(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig7(nil, []int{3, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3MDPerformance(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table3(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8LearningCurve(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig8(eval.Fig8Config{SensorCounts: []int{9}, Repeats: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9DeauthTime(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig9([]int{3, 9}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10AttackOpportunities(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig10(eval.AdversaryDelays{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Usability(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table4(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11VarianceCorrelation(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12RMIHeatmap(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig12(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5TopFeatures(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table5(15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13SecurityUsabilityTradeoff(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig13(4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches: one design choice of the model each ---

// ablationDataset generates a small dataset under a custom RF model.
func ablationDataset(b *testing.B, mutate func(*sim.Config)) *eval.Harness {
	b.Helper()
	cfg := sim.Config{Days: 1, Seed: 555}
	cfg.Agent.DaySeconds = 5400
	cfg.Agent.MorningJitterSec = 180
	cfg.Agent.DeparturesPerDay = 4
	cfg.Agent.OutsideMeanSec = 180
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := sim.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := eval.NewHarness(ds, eval.Options{Seed: 555})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkAblationShadowModel compares the calibrated elliptical
// body-shadowing region against a nearly-LoS-only variant: a narrow
// ellipse starves the RE classifier of spatial signature.
func BenchmarkAblationShadowModel(b *testing.B) {
	for _, c := range []struct {
		name    string
		ellipse float64
	}{
		{"elliptical-0.35m", 0.35},
		{"los-only-0.08m", 0.08},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := ablationDataset(b, func(cfg *sim.Config) { cfg.RF.BodyEllipseM = c.ellipse })
				rows, err := h.Table3(0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[len(rows)-1].Detection.FMeasure(), "fmeasure")
			}
		})
	}
}

// BenchmarkAblationMDWindow sweeps the rolling std-dev window d: too short
// and windows fragment; too long and they smear past t∆ matching.
func BenchmarkAblationMDWindow(b *testing.B) {
	for _, c := range []struct {
		name string
		d    float64
	}{
		{"d-1.2s", 1.2},
		{"d-2.4s", 2.4},
		{"d-4.8s", 4.8},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := benchHarness(b).Dataset()
				opt := eval.Options{Seed: 99}
				opt.MD = md.Config{StdWindowSec: c.d}
				h, err := eval.NewHarness(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := h.Table3(0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[len(rows)-1].Detection.FMeasure(), "fmeasure")
			}
		})
	}
}

// BenchmarkAblationProfileUpdate turns Algorithm 1's batched profile
// update off (τ=-1 rejects every batch) to show the adaptive profile
// matters under occupancy drift.
func BenchmarkAblationProfileUpdate(b *testing.B) {
	for _, c := range []struct {
		name string
		tau  float64
	}{
		{"update-on", 0.25},
		{"update-off", -1},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := benchHarness(b).Dataset()
				opt := eval.Options{Seed: 98}
				opt.MD = md.Config{Tau: c.tau}
				h, err := eval.NewHarness(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := h.Table3(0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[len(rows)-1].Detection.FMeasure(), "fmeasure")
			}
		})
	}
}

// BenchmarkAblationSVMKernel compares linear and RBF classification
// accuracy on the full-deployment samples.
func BenchmarkAblationSVMKernel(b *testing.B) {
	for _, c := range []struct {
		name   string
		kernel svm.Kernel
	}{
		{"linear", svm.Linear{}},
		{"rbf-auto", svm.RBF{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := benchHarness(b)
			for i := 0; i < b.N; i++ {
				samples, _, err := h.CrossValPredictions(9, 4.5, 7)
				if err != nil {
					b.Fatal(err)
				}
				acc := crossValAccuracy(b, samples, svm.Config{C: 2, Kernel: c.kernel, MaxPasses: 3, MaxIter: 120})
				b.ReportMetric(acc, "accuracy")
			}
		})
	}
}

// BenchmarkAblationFeatureSets measures accuracy with each feature family
// removed, quantifying the var/ent/ac mix of Section IV-D1.
func BenchmarkAblationFeatureSets(b *testing.B) {
	masks := []struct {
		name string
		keep [3]bool // var, ent, ac
	}{
		{"all", [3]bool{true, true, true}},
		{"variance-only", [3]bool{true, false, false}},
		{"no-autocorr", [3]bool{true, true, false}},
	}
	for _, m := range masks {
		b.Run(m.name, func(b *testing.B) {
			h := benchHarness(b)
			for i := 0; i < b.N; i++ {
				samples, _, err := h.CrossValPredictions(9, 4.5, 7)
				if err != nil {
					b.Fatal(err)
				}
				masked := maskFeatures(samples, m.keep)
				acc := crossValAccuracy(b, masked, svm.Config{C: 2, Kernel: svm.RBF{}, MaxPasses: 3, MaxIter: 120})
				b.ReportMetric(acc, "accuracy")
			}
		})
	}
}

// maskFeatures keeps only the selected per-stream feature kinds.
func maskFeatures(samples []re.Sample, keep [3]bool) []re.Sample {
	out := make([]re.Sample, len(samples))
	for i, s := range samples {
		var f []float64
		for j, v := range s.Features {
			if keep[j%re.FeaturesPerStream] {
				f = append(f, v)
			}
		}
		out[i] = re.Sample{Features: f, Label: s.Label, Day: s.Day, StartTick: s.StartTick}
	}
	return out
}

// crossValAccuracy runs a quick 5-fold CV.
func crossValAccuracy(b *testing.B, samples []re.Sample, cfg svm.Config) float64 {
	b.Helper()
	if len(samples) < 10 {
		return 0
	}
	labels := make([]int, len(samples))
	for i, s := range samples {
		labels[i] = s.Label
	}
	folds := svm.StratifiedKFold(labels, 5, 77)
	correct, total := 0, 0
	for f := range folds {
		var train, test []re.Sample
		for fi, idxs := range folds {
			for _, idx := range idxs {
				if fi == f {
					test = append(test, samples[idx])
				} else {
					train = append(train, samples[idx])
				}
			}
		}
		clf, err := re.Train(train, cfg)
		if err != nil {
			continue
		}
		for _, s := range test {
			if clf.Predict(s.Features) == s.Label {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// --- Hot-path throughput benches ---

func BenchmarkRFSampleTick(b *testing.B) {
	sensors := []geom.Point{
		{X: 6, Y: 1.5}, {X: 0.9, Y: 3}, {X: 2.4, Y: 3}, {X: 3.9, Y: 3}, {X: 5.4, Y: 3},
		{X: 0, Y: 1.5}, {X: 4.6, Y: 0}, {X: 3, Y: 0}, {X: 1.4, Y: 0},
	}
	n, err := rf.NewNetwork(rf.Config{}, sensors, 0.2, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	bodies := []rf.Body{
		{Pos: geom.Point{X: 2, Y: 2}, Speed: 0.02},
		{Pos: geom.Point{X: 4, Y: 1}, Speed: 1.4},
		{Pos: geom.Point{X: 1, Y: 1}, Speed: 0.02},
	}
	out := make([]float64, n.NumStreams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Sample(bodies, out)
	}
}

// BenchmarkSampleBlock measures the columnar RF hot path at CSI-grade
// stream counts: one 64-tick SampleBlock per iteration with three bodies
// (two seated, one walking), at 1, 4 and 16 subcarriers per link. The
// per-link body effects are computed once per tick and shared across
// subcarriers, so ns/tick should grow far slower than the stream count.
func BenchmarkSampleBlock(b *testing.B) {
	sensors := []geom.Point{
		{X: 6, Y: 1.5}, {X: 0.9, Y: 3}, {X: 2.4, Y: 3}, {X: 3.9, Y: 3}, {X: 5.4, Y: 3},
		{X: 0, Y: 1.5}, {X: 4.6, Y: 0}, {X: 3, Y: 0}, {X: 1.4, Y: 0},
	}
	bodies := []rf.Body{
		{Pos: geom.Point{X: 2, Y: 2}, Speed: 0.02},
		{Pos: geom.Point{X: 4, Y: 1}, Speed: 1.4},
		{Pos: geom.Point{X: 1, Y: 1}, Speed: 0.02},
	}
	const ticks = 64
	for _, subc := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("subc-%d", subc), func(b *testing.B) {
			n, err := rf.NewNetwork(rf.Config{Subcarriers: subc}, sensors, 0.2, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			tickBodies := make([][]rf.Body, ticks)
			for t := range tickBodies {
				tickBodies[t] = bodies
			}
			var blk rf.Block
			n.SampleBlock(tickBodies, &blk) // warm the buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SampleBlock(tickBodies, &blk)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ticks, "ns/tick")
		})
	}
}

func BenchmarkMDDetectorTick(b *testing.B) {
	det, err := md.NewDetector(md.Config{}, 72, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	buf := make([]float64, 72)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range buf {
			buf[k] = -60 + src.Normal(0, 0.8)
		}
		det.Push(buf)
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	src := rng.New(3)
	var x [][]float64
	var y []int
	for class := 0; class < 4; class++ {
		for i := 0; i < 30; i++ {
			row := make([]float64, 216)
			for j := range row {
				row[j] = float64(class) + src.Normal(0, 0.5)
			}
			x = append(x, row)
			y = append(y, class)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.TrainMulticlass(x, y, svm.Config{Kernel: svm.RBF{}, C: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	h := benchHarness(b)
	ds := h.Dataset()
	subset := ds.StreamSubset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	trace := ds.Days[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.Extract(trace.Streams, subset, 1000, trace.DT, re.FeatureConfig{})
	}
}

func BenchmarkSimulateDay(b *testing.B) {
	cfg := sim.Config{Days: 1, Seed: 9}
	cfg.Agent.DaySeconds = 600 // ten simulated minutes per iteration
	cfg.Agent.MorningJitterSec = 60
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		if _, err := sim.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fleet-engine benches: sequential vs parallel generation, fleet
// --- throughput at increasing office counts ---

// BenchmarkGenerateDataset compares sequential and parallel multi-day
// dataset generation; the parallel case fans the days out over one
// worker per CPU. On a multi-core machine the parallel variant should
// approach a Days-fold speedup (capped by core count); output is
// bit-identical either way.
func BenchmarkGenerateDataset(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("parallel-%dcpu", runtime.NumCPU()), 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := sim.Config{Days: 8, Seed: 11, Workers: c.workers}
			cfg.Agent.DaySeconds = 600
			cfg.Agent.MorningJitterSec = 60
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i) + 11
				if _, err := sim.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetThroughput measures merged-stream tick delivery at 1, 8
// and 64 offices, reporting aggregate ticks/sec across the fleet. The
// per-office System work is identical, so the metric shows how fleet
// sharding scales with office count.
func BenchmarkFleetThroughput(b *testing.B) {
	const (
		streams    = 12
		batchTicks = 128
	)
	for _, offices := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("offices-%d", offices), func(b *testing.B) {
			fleet, err := engine.NewFleet(engine.FleetConfig{
				Offices: offices,
				System:  core.Config{Streams: streams, Workstations: 3},
			})
			if err != nil {
				b.Fatal(err)
			}
			// One pre-generated quiet batch per office, reused every
			// iteration: the benchmark measures delivery, not rng.
			batch := make([]engine.OfficeBatch, offices)
			for o := range batch {
				src := rng.New(uint64(o) + 1)
				ticks := make([][]float64, batchTicks)
				for t := range ticks {
					row := make([]float64, streams)
					for k := range row {
						row[k] = -60 + src.Normal(0, 0.5)
					}
					ticks[t] = row
				}
				batch[o] = engine.OfficeBatch{Office: o, Ticks: ticks}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			totalTicks := float64(b.N) * float64(offices) * batchTicks
			b.ReportMetric(totalTicks/b.Elapsed().Seconds(), "ticks/sec")
		})
	}
}

// BenchmarkIngestorThroughput measures the asynchronous stream layer on
// top of the fleet: per-office pushes through the bounded queues, one
// Flush per batch window, with and without a ring sink attached. The
// delta against BenchmarkFleetThroughput is the price of the queueing
// and pump machinery.
func BenchmarkIngestorThroughput(b *testing.B) {
	const (
		streams    = 12
		offices    = 8
		batchTicks = 128
	)
	ticks := make([][][]float64, offices)
	for o := range ticks {
		src := rng.New(uint64(o) + 1)
		rows := make([][]float64, batchTicks)
		for t := range rows {
			row := make([]float64, streams)
			for k := range row {
				row[k] = -60 + src.Normal(0, 0.5)
			}
			rows[t] = row
		}
		ticks[o] = rows
	}
	for _, c := range []struct {
		name string
		sink func() stream.Sink
	}{
		{"no-sink", func() stream.Sink { return nil }},
		{"ring-sink", func() stream.Sink { return stream.NewRingSink(4096) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			fleet, err := engine.NewFleet(engine.FleetConfig{
				Offices: offices,
				System:  core.Config{Streams: streams, Workstations: 3},
			})
			if err != nil {
				b.Fatal(err)
			}
			ing, err := stream.NewIngestor(fleet, stream.Config{Queue: batchTicks, Sink: c.sink()})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for o := range ticks {
					for _, row := range ticks[o] {
						if err := ing.Push(o, row); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := ing.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
			totalTicks := float64(b.N) * float64(offices) * batchTicks
			b.ReportMetric(totalTicks/b.Elapsed().Seconds(), "ticks/sec")
		})
	}
}

// BenchmarkIngestorContended drives the ingestor from many concurrent
// producers — one goroutine per office, Block backpressure — so every
// Push races the other producers and the dispatcher for the ingestor's
// synchronisation. Wall-clock here tracks how much the queue machinery
// serialises independent offices against each other; run with
// -mutexprofile to attribute the lock wait.
func BenchmarkIngestorContended(b *testing.B) {
	const (
		streams      = 4
		ticksPerProd = 128
		queue        = 64 // half of ticksPerProd: full queues dispatch while producers push
	)
	for _, producers := range []int{8, 64} {
		b.Run(fmt.Sprintf("producers-%d", producers), func(b *testing.B) {
			fleet, err := engine.NewFleet(engine.FleetConfig{
				Offices: producers,
				System:  core.Config{Streams: streams, Workstations: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			ing, err := stream.NewIngestor(fleet, stream.Config{Queue: queue, OnFull: stream.Block})
			if err != nil {
				b.Fatal(err)
			}
			rows := make([][][]float64, producers)
			for o := range rows {
				src := rng.New(uint64(o) + 1)
				rows[o] = make([][]float64, ticksPerProd)
				for t := range rows[o] {
					row := make([]float64, streams)
					for k := range row {
						row[k] = -60 + src.Normal(0, 0.5)
					}
					rows[o][t] = row
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for o := 0; o < producers; o++ {
					wg.Add(1)
					go func(o int) {
						defer wg.Done()
						for _, row := range rows[o] {
							if err := ing.Push(o, row); err != nil {
								b.Error(err)
								return
							}
						}
					}(o)
				}
				wg.Wait()
				if err := ing.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
			totalTicks := float64(b.N) * float64(producers) * ticksPerProd
			b.ReportMetric(totalTicks/b.Elapsed().Seconds(), "ticks/sec")
		})
	}
}
