package fadewich_test

import (
	"io"
	"testing"

	"fadewich"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart does: simulate, evaluate, and run the streaming system.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := fadewich.SimConfig{Days: 1, Seed: 123}
	cfg.Agent.DaySeconds = 3600
	cfg.Agent.MorningJitterSec = 120
	cfg.Agent.DeparturesPerDay = 3
	cfg.Agent.OutsideMeanSec = 120
	ds, err := fadewich.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumStreams() != 72 {
		t.Fatalf("streams %d", ds.NumStreams())
	}

	h, err := fadewich.NewHarness(ds, fadewich.EvalOptions{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := h.Table3(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Table III rows")
	}

	sys, err := fadewich.NewSystem(fadewich.SystemConfig{
		DT:           ds.Days[0].DT,
		Streams:      ds.NumStreams(),
		Workstations: ds.Layout.NumWorkstations(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Phase() != fadewich.PhaseTraining {
		t.Fatal("new system not in training phase")
	}
	// Push a handful of quiet ticks through the public surface.
	rssi := make([]float64, ds.NumStreams())
	for i := 0; i < 10; i++ {
		for k := range ds.Days[0].Streams {
			rssi[k] = float64(ds.Days[0].Streams[k][i])
		}
		sys.Tick(rssi)
	}
	sys.NotifyInput(0)
	if !sys.Authenticated(0) {
		t.Fatal("NotifyInput did not authenticate through the facade")
	}
}

// TestFacadeStreaming exercises the streaming exports: a small fleet
// behind an Ingestor, its merged action stream fanned out to a ring and a
// segment log sink.
func TestFacadeStreaming(t *testing.T) {
	fleet, err := fadewich.NewFleet(fadewich.FleetConfig{
		Offices: 2,
		System: fadewich.SystemConfig{
			Streams:      2,
			Workstations: 1,
			Params:       fadewich.ControlParams{TimeoutSec: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := fadewich.NewRingSink(256)
	segDir := t.TempDir()
	seg, err := fadewich.NewSegmentSink(fadewich.SegmentConfig{Dir: segDir})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := fadewich.NewIngestor(fleet, fadewich.IngestorConfig{
		Queue:  64,
		OnFull: fadewich.OnFullBlock,
		Sink:   fadewich.NewMultiSink(ring, seg),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A login then enough quiet ticks for the 5 s timeout backstop to
	// deauthenticate both offices.
	for o := 0; o < fleet.Offices(); o++ {
		if err := ing.PushInput(o, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		for o := 0; o < fleet.Offices(); o++ {
			if err := ing.Push(o, []float64{-60, -58}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	acts := ring.Actions()
	deauths := 0
	for _, a := range acts {
		if a.Action.Type == fadewich.ActionDeauthenticate {
			deauths++
		}
	}
	if deauths != 2 {
		t.Fatalf("%d deauthentications in the sink stream, want one per office", deauths)
	}
	r, err := fadewich.OpenSegmentDir(segDir, fadewich.SegmentReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for {
		b, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed += len(b)
	}
	r.Close()
	if replayed != len(acts) {
		t.Fatalf("segment log replays %d actions, ring has %d", replayed, len(acts))
	}
	st := ing.Stats()
	if st.Dropped != 0 || st.Offices[0].Dispatched != 60 {
		t.Fatalf("ingestor stats: %+v", st)
	}
}

func TestOfficePresets(t *testing.T) {
	if fadewich.PaperOffice().NumSensors() != 9 {
		t.Fatal("paper office sensors")
	}
	if fadewich.SmallOffice().NumWorkstations() != 2 {
		t.Fatal("small office workstations")
	}
	if fadewich.WideOffice().NumWorkstations() != 4 {
		t.Fatal("wide office workstations")
	}
}

func TestDefaultParams(t *testing.T) {
	p := fadewich.DefaultControlParams()
	if p.TDeltaSec != 4.5 || p.TIDSec != 5 || p.TSSSec != 3 || p.TimeoutSec != 300 {
		t.Fatalf("paper constants wrong: %+v", p)
	}
	opt := fadewich.DefaultEvalOptions()
	if len(opt.SensorCounts) != 7 {
		t.Fatalf("sensor counts %v", opt.SensorCounts)
	}
}
