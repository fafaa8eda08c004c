// Command fadewich-sim demonstrates the streaming FADEWICH System
// end-to-end: it generates a multi-day office dataset, drives the System
// through its training phase on the first days (auto-labelling variation
// windows from workstation idle times), trains the classifier, then runs
// the online phase on the final day and reports every deauthentication
// against the ground truth.
//
// Usage:
//
//	fadewich-sim [-days N] [-seed S] [-sensors M] [-parallel P] [-v]
//	             [-cpuprofile F] [-memprofile F] [-mutexprofile F]
package main

import (
	"flag"
	"fmt"
	"os"

	"fadewich/internal/agent"
	"fadewich/internal/core"
	"fadewich/internal/kma"
	"fadewich/internal/prof"
	"fadewich/internal/rng"
	"fadewich/internal/sim"
)

func main() {
	days := flag.Int("days", 3, "total days (all but the last train the system)")
	seed := flag.Uint64("seed", 7, "simulation seed")
	sensors := flag.Int("sensors", 9, "sensors to deploy (3..9)")
	parallel := flag.Int("parallel", 0, "worker pool width (0 = one per CPU, 1 = sequential)")
	verbose := flag.Bool("v", false, "print every action")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.Parse()
	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-sim: %v\n", err)
		os.Exit(1)
	}
	err = run(*days, *seed, *sensors, *parallel, *verbose)
	// Flush profiles before deciding the exit code (os.Exit would skip a
	// deferred flush), and let a profile-write failure surface when the
	// run itself succeeded.
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(days int, seed uint64, sensors, parallel int, verbose bool) error {
	if days < 2 {
		return fmt.Errorf("need at least 2 days (training + online), got %d", days)
	}
	fmt.Printf("generating %d-day dataset (seed %d)...\n", days, seed)
	ds, err := sim.Generate(sim.Config{Days: days, Seed: seed, Workers: parallel})
	if err != nil {
		return err
	}
	subsetIdx, err := ds.Layout.SensorSubset(sensors)
	if err != nil {
		return err
	}
	streams := ds.StreamSubset(subsetIdx)

	sys, err := core.NewSystem(core.Config{
		DT:           ds.Days[0].DT,
		Streams:      len(streams),
		Workstations: ds.Layout.NumWorkstations(),
	})
	if err != nil {
		return err
	}

	src := rng.New(seed ^ 0xfade)
	inputsPerDay := make([][][]float64, len(ds.Days))
	for day, trace := range ds.Days {
		inputsPerDay[day] = kma.GenerateInputs(trace.InputSpans, trace.Events, kma.InputModel{}, src.Split())
	}

	// Training phase over all but the last day.
	for day := 0; day < days-1; day++ {
		feed(sys, ds.Days[day], streams, inputsPerDay[day], nil)
		fmt.Printf("day %d: %d labelled training samples collected\n", day+1, sys.TrainingSamples())
	}
	if err := sys.FinishTraining(); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	fmt.Printf("classifier trained on %d auto-labelled samples; going online\n\n", sys.TrainingSamples())

	// Online phase on the last day. Times reported day-relative.
	trace := ds.Days[days-1]
	dayBase := sys.Now()
	var deauths []core.Action
	feed(sys, trace, streams, inputsPerDay[days-1], func(a core.Action) {
		a.Time -= dayBase
		if verbose || a.Type == core.ActionDeauthenticate {
			fmt.Printf("  %8.1fs  %-15s w%d", a.Time, a.Type, a.Workstation+1)
			if a.Type == core.ActionDeauthenticate {
				fmt.Printf("  (cause %s)", a.Cause)
			}
			fmt.Println()
		}
		if a.Type == core.ActionDeauthenticate {
			deauths = append(deauths, a)
		}
	})

	// Score online deauthentications against ground-truth departures.
	fmt.Println()
	caught, departures := scoreDay(trace, deauths)
	fmt.Printf("\nonline day: %d/%d departures deauthenticated within 10 s (%d sensors)\n",
		caught, departures, sensors)
	return nil
}

// feed drives the System through one day of the trace, delivering RSSI
// ticks and input notifications in timestamp order. A seated user who sees
// the screensaver activate reacts by moving the mouse ~1.5 s later, which
// cancels the alert — matching the paper's usability accounting where a
// spurious screensaver costs the user a 3-second cancellation.
func feed(sys *core.System, trace *sim.Trace, streams []int, inputs [][]float64, onAction func(core.Action)) {
	const reactionSec = 1.5
	cursor := make([]int, len(inputs))
	rssi := make([]float64, len(streams))
	reactAt := make([]float64, len(inputs))
	for ws := range reactAt {
		reactAt[ws] = -1
	}
	base := sys.Now()
	for i := 0; i < trace.Ticks; i++ {
		t := base + float64(i+1)*trace.DT
		dayT := float64(i+1) * trace.DT
		for ws := range inputs {
			for cursor[ws] < len(inputs[ws]) && base+inputs[ws][cursor[ws]] <= t {
				sys.NotifyInput(ws)
				cursor[ws]++
			}
			if reactAt[ws] >= 0 && t >= reactAt[ws] {
				sys.NotifyInput(ws)
				reactAt[ws] = -1
			}
		}
		for j, k := range streams {
			rssi[j] = float64(trace.Streams[k][i])
		}
		for _, a := range sys.Tick(rssi) {
			if a.Type == core.ActionScreensaverOn && seatedAt(trace, a.Workstation, dayT) {
				reactAt[a.Workstation] = t + reactionSec
			}
			if onAction != nil {
				onAction(a)
			}
		}
	}
}

// seatedAt reports whether workstation ws's user is seated at
// day-relative time t.
func seatedAt(trace *sim.Trace, ws int, t float64) bool {
	if ws < 0 || ws >= len(trace.Seated) {
		return false
	}
	for _, iv := range trace.Seated[ws] {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// scoreDay counts ground-truth departures deauthenticated within 10
// seconds and prints one line per caught departure. Deauth times are
// day-relative.
func scoreDay(trace *sim.Trace, deauths []core.Action) (caught, departures int) {
	for _, e := range trace.Events {
		if e.Type != agent.EventDeparture {
			continue
		}
		departures++
		for _, d := range deauths {
			if d.Workstation == e.Workstation && d.Time >= e.Time && d.Time <= e.Time+10 {
				caught++
				fmt.Printf("departure w%d at %7.1fs -> deauthenticated +%.1fs (%s)\n",
					e.Workstation+1, e.Time, d.Time-e.Time, d.Cause)
				break
			}
		}
	}
	return caught, departures
}
