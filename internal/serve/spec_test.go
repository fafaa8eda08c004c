package serve

import (
	"math"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	raw := []byte(`{
		"defaults": {"layout": "small", "sensors": 3, "dt": 0.5},
		"offices": [
			{"name": "hq"},
			{"name": "lab", "layout": "paper", "sensors": 4, "md_tau": 2.5}
		]
	}`)
	s, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Offices) != 2 || s.Offices[0].Name != "hq" || s.Offices[1].MDTau != 2.5 {
		t.Fatalf("spec decoded wrong: %+v", s)
	}
	if s.Defaults.Layout != "small" || s.Defaults.DT != 0.5 {
		t.Fatalf("defaults decoded wrong: %+v", s.Defaults)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"offices": [{"name": "hq", "sensros": 4}]}`)); err == nil {
		t.Fatal("typo'd field parsed silently")
	}
}

func TestParseSpecRejectsTrailingData(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"offices": [{"name": "hq"}]} {"offices": []}`)); err == nil {
		t.Fatal("trailing object accepted")
	}
}

// TestParseSpecRejectsTrailingGarbage covers tails that are not a
// JSON value of their own: a stray token, a closing delimiter, a comma,
// an unterminated value. Only whitespace may follow the spec object.
func TestParseSpecRejectsTrailingGarbage(t *testing.T) {
	const spec = `{"offices": [{"name": "hq"}]}`
	for _, tail := range []string{" xyz", " }", ",", " [", "\n{}"} {
		if _, err := ParseSpec([]byte(spec + tail)); err == nil {
			t.Errorf("spec with tail %q accepted", tail)
		}
	}
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		if _, err := ParseSpec([]byte(spec + tail)); err != nil {
			t.Errorf("spec with whitespace tail %q rejected: %v", tail, err)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestResolveDefaulting(t *testing.T) {
	s := &Spec{
		Defaults: OfficeSpec{Layout: "small", DT: 0.4, MDTau: 3, MinTrainingSamples: 7},
		Offices: []OfficeSpec{
			{Name: "plain"},
			{Name: "big", Layout: "wide", Sensors: 5, DT: 0.2, MDTau: 1.5},
		},
	}
	out, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("resolved %d offices, want 2", len(out))
	}
	// "plain" inherits everything: small layout, full 6-sensor set.
	plain := out[0]
	if plain.Name != "plain" {
		t.Fatalf("office order not preserved: %q first", plain.Name)
	}
	if got, want := plain.Config.Streams, 6*5; got != want {
		t.Fatalf("plain streams = %d, want %d (full small layout)", got, want)
	}
	if plain.Config.Workstations != 2 {
		t.Fatalf("plain workstations = %d, want 2", plain.Config.Workstations)
	}
	if plain.Config.DT != 0.4 || plain.Config.MD.Tau != 3 || plain.Config.MinTrainingSamples != 7 {
		t.Fatalf("plain did not inherit defaults: %+v", plain.Config)
	}
	// "big" overrides: wide layout, 5 of 9 sensors, own dt/tau.
	big := out[1]
	if got, want := big.Config.Streams, 5*4; got != want {
		t.Fatalf("big streams = %d, want %d", got, want)
	}
	if big.Config.Workstations != 4 {
		t.Fatalf("big workstations = %d, want 4 (wide)", big.Config.Workstations)
	}
	if big.Config.DT != 0.2 || big.Config.MD.Tau != 1.5 {
		t.Fatalf("big overrides lost: %+v", big.Config)
	}
	// Inherited where not overridden.
	if big.Config.MinTrainingSamples != 7 {
		t.Fatalf("big min_training_samples = %d, want inherited 7", big.Config.MinTrainingSamples)
	}
}

func TestResolveConfigComparable(t *testing.T) {
	s := &Spec{Offices: []OfficeSpec{{Name: "a"}, {Name: "b"}}}
	out, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Config != out[1].Config {
		t.Fatal("identical office specs resolved to different configs")
	}
	s.Offices[1].MDTau = 9
	out2, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if out2[0].Config == out2[1].Config {
		t.Fatal("md_tau change invisible to config equality")
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing name", Spec{Offices: []OfficeSpec{{}}}, "missing name"},
		{"duplicate name", Spec{Offices: []OfficeSpec{{Name: "x"}, {Name: "x"}}}, "duplicate name"},
		{"unknown layout", Spec{Offices: []OfficeSpec{{Name: "x", Layout: "mars"}}}, "unknown layout"},
		{"sensors too few", Spec{Offices: []OfficeSpec{{Name: "x", Sensors: 1}}}, "out of range"},
		{"sensors too many", Spec{Offices: []OfficeSpec{{Name: "x", Layout: "small", Sensors: 99}}}, "out of range"},
		// 75,000 warm-up ticks outgrow the md detector's 16-bit
		// insertion numbers (md.ErrProfileWindow).
		{"dt below the md profile bound", Spec{Offices: []OfficeSpec{{Name: "x", Layout: "small", DT: 0.0004}}}, "profile window"},
		// A rolling window of 1e18 ticks (or NaN) would panic in
		// makeslice (md.ErrStdWindow).
		{"md std window 2e17", Spec{Offices: []OfficeSpec{{Name: "x", Layout: "small", MDStdWindowSec: 2e17}}}, "std window"},
		{"md std window NaN", Spec{Offices: []OfficeSpec{{Name: "x", Layout: "small", MDStdWindowSec: math.NaN()}}}, "std window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.spec.Resolve()
			if err == nil {
				t.Fatalf("resolved: %+v", out)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if out != nil {
				t.Fatal("partial resolution returned alongside an error")
			}
		})
	}
}

// TestResolveEmptySpec pins that an office-less spec resolves cleanly
// to zero offices — emptiness is the caller's policy (a worker's shard
// may be empty), not a resolution error.
func TestResolveEmptySpec(t *testing.T) {
	out, err := (&Spec{}).Resolve()
	if err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("resolved %d offices from an empty spec", len(out))
	}
}

func TestResolveAllOrNothing(t *testing.T) {
	// A valid office before an invalid one must not leak out.
	s := &Spec{Offices: []OfficeSpec{{Name: "good"}, {Name: "bad", Layout: "mars"}}}
	out, err := s.Resolve()
	if err == nil || out != nil {
		t.Fatalf("want atomic failure, got out=%v err=%v", out, err)
	}
	if !strings.Contains(err.Error(), `office 1 ("bad")`) {
		t.Fatalf("error %q does not name the failing office", err)
	}
}
