// Command fadewich-eval regenerates the tables and figures of the
// FADEWICH paper's evaluation from a simulated dataset.
//
// Usage:
//
//	fadewich-eval [-exp all|fig2|table2|fig7|table3|fig8|fig9|fig10|table4|fig11|fig12|table5|fig13]
//	              [-days N] [-seed S] [-draws D] [-parallel P] [-csv]
//
// Each experiment prints an ASCII table (and, with -csv, the raw series)
// that corresponds to one table or figure of the paper; EXPERIMENTS.md
// records a reference run side by side with the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"fadewich/internal/eval"
	"fadewich/internal/prof"
	"fadewich/internal/report"
	"fadewich/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig2, table2, fig7, table3, fig8, fig9, fig10, table4, fig11, fig12, table5, fig13)")
	days := flag.Int("days", 5, "simulated working days")
	seed := flag.Uint64("seed", 42, "simulation seed")
	draws := flag.Int("draws", 100, "input redraws for the usability simulation")
	parallel := flag.Int("parallel", 0, "worker pool width for generation and sweeps (0 = one per CPU, 1 = sequential)")
	csv := flag.Bool("csv", false, "also print figure series as CSV")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.Parse()

	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-eval: %v\n", err)
		os.Exit(1)
	}
	err = run(*exp, *days, *seed, *draws, *parallel, *csv)
	// Flush profiles before deciding the exit code (os.Exit would skip a
	// deferred flush), and let a profile-write failure surface when the
	// run itself succeeded.
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-eval: %v\n", err)
		os.Exit(1)
	}
}

// run generates the dataset, then runs the experiment on it.
func run(exp string, days int, seed uint64, draws, parallel int, csv bool) error {
	start := time.Now()
	ds, err := generate(days, seed, parallel)
	if err != nil {
		return err
	}
	return runOn(ds, start, exp, seed, draws, parallel, csv)
}

// generate announces and builds the simulated dataset.
func generate(days int, seed uint64, parallel int) (*sim.Dataset, error) {
	fmt.Printf("generating dataset: %d day(s), seed %d ...\n", days, seed)
	return sim.Generate(sim.Config{Days: days, Seed: seed, Workers: parallel})
}

// runOn runs one experiment (or all) on a generated dataset, through a
// fresh harness: the harness draws from its own root rng.Source, so
// one dataset serves any number of runs. start is when generation
// began, for the set-up time it reports.
func runOn(ds *sim.Dataset, start time.Time, exp string, seed uint64, draws, parallel int, csv bool) error {
	h, err := eval.NewHarness(ds, eval.Options{Seed: seed, Workers: parallel})
	if err != nil {
		return err
	}
	fmt.Printf("dataset ready in %.1fs: %d streams, %.0f monitored hours\n\n",
		time.Since(start).Seconds(), ds.NumStreams(), ds.TotalHours())

	runners := map[string]func(*eval.Harness, int, bool) error{
		"table2": runTable2,
		"fig2":   runFig2,
		"fig7":   runFig7,
		"table3": runTable3,
		"fig8":   runFig8,
		"fig9":   runFig9,
		"fig10":  runFig10,
		"table4": runTable4,
		"fig11":  runFig11,
		"fig12":  runFig12,
		"table5": runTable5,
		"fig13":  runFig13,
	}
	order := []string{"table2", "fig2", "fig7", "table3", "fig8", "fig9", "fig10", "table4", "fig11", "fig12", "table5", "fig13"}

	exp = strings.ToLower(exp)
	if exp == "all" {
		for _, name := range order {
			t0 := time.Now()
			if err := runners[name](h, draws, csv); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(t0).Seconds())
		}
		return nil
	}
	runner, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of %s, or all)", exp, strings.Join(order, ", "))
	}
	return runner(h, draws, csv)
}

func runTable2(h *eval.Harness, _ int, _ bool) error {
	rows := h.Table2()
	t := report.NewTable("Table II — labelled events collected (paper: w0=67 w1=21 w2=20 w3=22)", "label", "events")
	total := 0
	for _, r := range rows {
		t.AddRow(r.Label, r.Count)
		total += r.Count
	}
	t.AddRow("total", total)
	t.Render(os.Stdout)
	return nil
}

func runFig2(h *eval.Harness, _ int, csv bool) error {
	data, err := h.Fig2()
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 2 — distribution of the std-dev sum (quiet vs walking)", "condition", "n", "mean", "p95", "max")
	addDist := func(name string, xs []float64) {
		s := summarize(xs)
		t.AddRow(name, s.n, s.mean, s.p95, s.max)
	}
	addDist("normal", data.Normal)
	addDist("walking", data.Walking)
	t.Render(os.Stdout)
	fmt.Printf("99th percentile threshold of the normal profile: %.2f\n", data.Threshold)
	if csv {
		report.WriteCSV(os.Stdout, report.Series{Name: "normal-kde", X: data.CurveX, Y: data.CurveY})
	}
	return nil
}

func runFig7(h *eval.Harness, _ int, csv bool) error {
	pts, err := h.Fig7(nil, nil)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 7 — MD F-measure vs t∆ (paper: peak near t∆≈5)", "t∆ (s)", "n=3", "n=5", "n=7", "n=9")
	byTD := map[float64]map[int]float64{}
	var tds []float64
	for _, p := range pts {
		if byTD[p.TDelta] == nil {
			byTD[p.TDelta] = map[int]float64{}
			tds = append(tds, p.TDelta)
		}
		byTD[p.TDelta][p.Sensors] = p.FMeasure
	}
	for _, td := range tds {
		m := byTD[td]
		t.AddRow(td, m[3], m[5], m[7], m[9])
	}
	t.Render(os.Stdout)
	if csv {
		var series []report.Series
		for _, n := range []int{3, 5, 7, 9} {
			s := report.Series{Name: fmt.Sprintf("n=%d", n)}
			for _, td := range tds {
				s.X = append(s.X, td)
				s.Y = append(s.Y, byTD[td][n])
			}
			series = append(series, s)
		}
		report.WriteCSV(os.Stdout, series...)
	}
	return nil
}

func runTable3(h *eval.Harness, _ int, _ bool) error {
	rows, err := h.Table3(0)
	if err != nil {
		return err
	}
	t := report.NewTable("Table III — MD performance at t∆=4.5 s (paper: TP .47→.95, FN .51→0)",
		"sensors", "TP frac", "TP #", "FP frac", "FP #", "FN frac", "FN #")
	for _, r := range rows {
		tp, fp, fn := r.Fractions()
		t.AddRow(r.Sensors, round2(tp), r.Detection.TP, round2(fp), r.Detection.FP, round2(fn), r.Detection.FN)
	}
	t.Render(os.Stdout)
	return nil
}

func runFig8(h *eval.Harness, _ int, csv bool) error {
	pts, err := h.Fig8(eval.Fig8Config{})
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 8 — RE accuracy vs training samples (paper: >0.90 at 7+ sensors after ~40 samples)",
		"sensors", "train size", "accuracy", "ci95")
	for _, p := range pts {
		t.AddRow(p.Sensors, p.TrainSize, round2(p.Accuracy), round2(p.CI95))
	}
	t.Render(os.Stdout)
	if csv {
		byN := map[int]*report.Series{}
		var order []int
		for _, p := range pts {
			s, ok := byN[p.Sensors]
			if !ok {
				s = &report.Series{Name: fmt.Sprintf("n=%d", p.Sensors)}
				byN[p.Sensors] = s
				order = append(order, p.Sensors)
			}
			s.X = append(s.X, float64(p.TrainSize))
			s.Y = append(s.Y, p.Accuracy)
		}
		var series []report.Series
		for _, n := range order {
			series = append(series, *byN[n])
		}
		report.WriteCSV(os.Stdout, series...)
	}
	return nil
}

func runFig9(h *eval.Harness, _ int, csv bool) error {
	curves, err := h.Fig9(nil, 10)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 9 — % workstations deauthenticated vs time elapsed (paper: 90% ≤ 4 s, all ≤ ~6 s at 9 sensors, step at 8 s)",
		"sensors", "case A", "case B", "case C", "% ≤ 4s", "% ≤ 6s", "% ≤ 8.2s", "% ≤ 10s")
	for _, c := range curves {
		t.AddRow(c.Sensors, c.Cases[eval.CaseA], c.Cases[eval.CaseB], c.Cases[eval.CaseC],
			round1(curveAt(c, 4)), round1(curveAt(c, 6)), round1(curveAt(c, 8.2)), round1(curveAt(c, 10)))
	}
	t.Render(os.Stdout)
	if csv {
		var series []report.Series
		for _, c := range curves {
			series = append(series, report.Series{Name: fmt.Sprintf("n=%d", c.Sensors), X: c.X, Y: c.Y})
		}
		report.WriteCSV(os.Stdout, series...)
	}
	return nil
}

func curveAt(c eval.Fig9Curve, x float64) float64 {
	for i := range c.X {
		if c.X[i] >= x {
			return c.Y[i]
		}
	}
	if len(c.Y) == 0 {
		return 0
	}
	return c.Y[len(c.Y)-1]
}

func runFig10(h *eval.Harness, _ int, _ bool) error {
	rows, err := h.Fig10(eval.AdversaryDelays{})
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 10 — attack opportunities (paper: 100% under time-out, →0 at 8+ sensors)",
		"policy", "departures", "insider %", "co-worker %")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Departures, round1(r.InsiderPct), round1(r.CoworkerPct))
	}
	t.Render(os.Stdout)
	return nil
}

func runTable4(h *eval.Harness, draws int, _ bool) error {
	rows, err := h.Table4(draws)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Table IV — usability over %d input draws (paper: cost ≤ 37 s/day)", draws),
		"sensors", "screensavers/day", "(std)", "deauths/day", "(std)", "cost s/day")
	for _, r := range rows {
		t.AddRow(r.Sensors, round2(r.ScreensaversPerDay), round2(r.ScreensaversStd),
			round2(r.DeauthsPerDay), round2(r.DeauthsStd), round1(r.CostPerDay))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig11(h *eval.Harness, _ int, _ bool) error {
	data, err := h.Fig11()
	if err != nil {
		return err
	}
	fmt.Println("== Fig 11 — correlations between per-stream variances ==")
	fmt.Printf("streams: %d; mean |corr| sharing a sensor: %.3f; disjoint: %.3f\n",
		len(data.StreamNames), data.SharedEndpointMean, data.DisjointMean)
	report.CorrelationSummary(os.Stdout, data.Corr)
	return nil
}

func runFig12(h *eval.Harness, _ int, _ bool) error {
	data, err := h.Fig12(0)
	if err != nil {
		return err
	}
	report.Heatmap(os.Stdout, "Fig 12 — stream importance (RMI) over the floor plan (paper: d5 least informative)", data.Grid)
	// Per-sensor aggregate importance.
	t := report.NewTable("per-sensor mean stream RMI", "sensor", "mean RMI")
	sensors := len(h.Dataset().Layout.Sensors)
	sums := make([]float64, sensors)
	counts := make([]int, sensors)
	for k, l := range data.Links {
		sums[l.TX] += data.StreamRMI[k]
		counts[l.TX]++
		sums[l.RX] += data.StreamRMI[k]
		counts[l.RX]++
	}
	for i := 0; i < sensors; i++ {
		if counts[i] > 0 {
			t.AddRow(fmt.Sprintf("d%d", i+1), round3(sums[i]/float64(counts[i])))
		}
	}
	t.Render(os.Stdout)
	return nil
}

func runTable5(h *eval.Harness, _ int, _ bool) error {
	rows, err := h.Table5(15)
	if err != nil {
		return err
	}
	t := report.NewTable("Table V — top 15 features by RMI", "rank", "feature", "RMI")
	for i, r := range rows {
		t.AddRow(i+1, r.Name, round3(r.RMI))
	}
	t.Render(os.Stdout)
	return nil
}

func runFig13(h *eval.Harness, draws int, _ bool) error {
	rows, err := h.Fig13(draws / 2)
	if err != nil {
		return err
	}
	t := report.NewTable("Fig 13 — vulnerable time vs total user cost (paper: exponential drop in vulnerable time)",
		"policy", "vulnerable (min)", "total cost (min)")
	for _, r := range rows {
		t.AddRow(r.Policy, round1(r.VulnerableMin), round1(r.TotalCostMin))
	}
	t.Render(os.Stdout)
	return nil
}

type distSummary struct {
	n              int
	mean, p95, max float64
}

func summarize(xs []float64) distSummary {
	if len(xs) == 0 {
		return distSummary{}
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return distSummary{
		n:    len(xs),
		mean: sum / float64(len(xs)),
		p95:  sorted[int(0.95*float64(len(sorted)-1))],
		max:  max,
	}
}

func round1(x float64) float64 { return roundN(x, 10) }
func round2(x float64) float64 { return roundN(x, 100) }
func round3(x float64) float64 { return roundN(x, 1000) }

func roundN(x float64, scale float64) float64 {
	if x < 0 {
		return -roundN(-x, scale)
	}
	return float64(int(x*scale+0.5)) / scale
}
