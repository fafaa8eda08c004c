package office

import (
	"testing"

	"fadewich/internal/geom"
)

func TestPresetsValidate(t *testing.T) {
	for _, l := range []*Layout{Paper(), Small(), Wide()} {
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
	}
}

func TestPaperLayoutShape(t *testing.T) {
	l := Paper()
	if l.NumWorkstations() != 3 {
		t.Fatalf("workstations %d", l.NumWorkstations())
	}
	if l.NumSensors() != 9 {
		t.Fatalf("sensors %d", l.NumSensors())
	}
	if l.Bounds.Width() != 6 || l.Bounds.Height() != 3 {
		t.Fatalf("bounds %vx%v, want 6x3", l.Bounds.Width(), l.Bounds.Height())
	}
}

func TestDeparturePaths(t *testing.T) {
	l := Paper()
	for ws := 0; ws < l.NumWorkstations(); ws++ {
		p, err := l.DeparturePath(ws)
		if err != nil {
			t.Fatal(err)
		}
		wp := p.Waypoints()
		if wp[0] != l.Workstations[ws] {
			t.Fatalf("path %d does not start at the seat", ws)
		}
		if wp[len(wp)-1] != l.Door {
			t.Fatalf("path %d does not end at the door", ws)
		}
		// The paper's t∆ reasoning needs multi-second walks.
		if p.Length() < 2 {
			t.Fatalf("path %d suspiciously short: %vm", ws, p.Length())
		}
		// Paths stay inside the room.
		for s := 0.0; s <= p.Length(); s += 0.1 {
			if !l.Bounds.Contains(p.At(s)) {
				t.Fatalf("path %d leaves the room at %v", ws, p.At(s))
			}
		}
	}
}

func TestEntryPathIsReversedDeparture(t *testing.T) {
	l := Paper()
	dep, _ := l.DeparturePath(1)
	ent, err := l.EntryPath(1)
	if err != nil {
		t.Fatal(err)
	}
	if ent.At(0) != l.Door {
		t.Fatal("entry path must start at the door")
	}
	if ent.Length() != dep.Length() {
		t.Fatal("entry path length differs from departure")
	}
}

func TestPathErrors(t *testing.T) {
	l := Paper()
	if _, err := l.DeparturePath(-1); err == nil {
		t.Fatal("negative workstation accepted")
	}
	if _, err := l.DeparturePath(99); err == nil {
		t.Fatal("out-of-range workstation accepted")
	}
	if _, err := l.EntryPath(99); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestSensorSubsetsNested(t *testing.T) {
	l := Paper()
	prev := map[int]bool{}
	for n := 2; n <= 9; n++ {
		sub, err := l.SensorSubset(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != n {
			t.Fatalf("subset size %d, want %d", len(sub), n)
		}
		seen := map[int]bool{}
		for _, s := range sub {
			if s < 0 || s >= l.NumSensors() {
				t.Fatalf("sensor index %d out of range", s)
			}
			if seen[s] {
				t.Fatalf("duplicate sensor %d in subset", s)
			}
			seen[s] = true
		}
		// Subsets must be nested: every previous sensor still included.
		for s := range prev {
			if !seen[s] {
				t.Fatalf("subset %d dropped sensor %d from subset %d", n, s, n-1)
			}
		}
		prev = seen
	}
}

func TestSensorSubsetD5Last(t *testing.T) {
	// The paper's RMI analysis found d5 least informative; our deployment
	// order adds it last.
	l := Paper()
	full, _ := l.SensorSubset(9)
	if full[8] != 4 { // d5 is index 4
		t.Fatalf("last deployed sensor is d%d, want d5", full[8]+1)
	}
	eight, _ := l.SensorSubset(8)
	for _, s := range eight {
		if s == 4 {
			t.Fatal("d5 included in the 8-sensor subset")
		}
	}
}

func TestSensorSubsetErrors(t *testing.T) {
	l := Paper()
	if _, err := l.SensorSubset(1); err == nil {
		t.Fatal("subset of 1 accepted")
	}
	if _, err := l.SensorSubset(10); err == nil {
		t.Fatal("oversized subset accepted")
	}
}

func TestGenericLayoutsUseGreedyOrder(t *testing.T) {
	for _, l := range []*Layout{Small(), Wide()} {
		sub, err := l.SensorSubset(3)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		// Greedy order starts at the sensor nearest the door.
		best, bestD := 0, l.Sensors[0].Dist(l.Door)
		for i, s := range l.Sensors {
			if d := s.Dist(l.Door); d < bestD {
				best, bestD = i, d
			}
		}
		if sub[0] != best {
			t.Fatalf("%s: first sensor %d, want door-nearest %d", l.Name, sub[0], best)
		}
	}
}

func TestValidateCatchesBrokenLayouts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Layout)
	}{
		{"no workstations", func(l *Layout) { l.Workstations = nil }},
		{"one sensor", func(l *Layout) { l.Sensors = l.Sensors[:1] }},
		{"workstation outside", func(l *Layout) { l.Workstations[0] = geom.Point{X: 99, Y: 99} }},
		{"sensor outside", func(l *Layout) { l.Sensors[0] = geom.Point{X: -5, Y: 0} }},
		{"door outside", func(l *Layout) { l.Door = geom.Point{X: 100, Y: 0} }},
		{"corridor outside", func(l *Layout) { l.Corridor = 50 }},
	}
	for _, c := range cases {
		l := Paper()
		c.mutate(l)
		if err := l.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted broken layout", c.name)
		}
	}
}
