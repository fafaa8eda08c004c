package stats

import (
	"testing"
)

func TestDetectionMetrics(t *testing.T) {
	d := Detection{TP: 8, FP: 2, FN: 2}
	if p := d.Precision(); p != 0.8 {
		t.Fatalf("precision %v", p)
	}
	if r := d.Recall(); r != 0.8 {
		t.Fatalf("recall %v", r)
	}
	if f := d.FMeasure(); !almost(f, 0.8, 1e-12) {
		t.Fatalf("f-measure %v", f)
	}
}

func TestDetectionDegenerate(t *testing.T) {
	var d Detection
	if d.Precision() != 0 || d.Recall() != 0 || d.FMeasure() != 0 {
		t.Fatal("empty detection should score 0 everywhere")
	}
	onlyFP := Detection{FP: 5}
	if onlyFP.Precision() != 0 || onlyFP.FMeasure() != 0 {
		t.Fatal("FP-only detection should score 0")
	}
	onlyFN := Detection{FN: 5}
	if onlyFN.Recall() != 0 {
		t.Fatal("FN-only recall should be 0")
	}
}

func TestDetectionAdd(t *testing.T) {
	a := Detection{TP: 1, FP: 2, FN: 3}
	b := Detection{TP: 10, FP: 20, FN: 30}
	got := a.Add(b)
	if got != (Detection{TP: 11, FP: 22, FN: 33}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestFMeasureHarmonicMeanProperty(t *testing.T) {
	// F is always between min and max of precision and recall, and equals
	// them when they are equal.
	cases := []Detection{
		{TP: 10, FP: 5, FN: 1},
		{TP: 3, FP: 9, FN: 2},
		{TP: 50, FP: 1, FN: 40},
	}
	for _, d := range cases {
		p, r, f := d.Precision(), d.Recall(), d.FMeasure()
		lo, hi := p, r
		if lo > hi {
			lo, hi = hi, lo
		}
		if f < lo-1e-12 || f > hi+1e-12 {
			t.Fatalf("F %v outside [%v, %v]", f, lo, hi)
		}
	}
}

func TestMeanAndCI95(t *testing.T) {
	mean, ci := MeanAndCI95([]float64{1, 1, 1, 1})
	if mean != 1 || ci != 0 {
		t.Fatalf("constant sample: mean %v ci %v", mean, ci)
	}
	mean, ci = MeanAndCI95([]float64{0, 2})
	if mean != 1 {
		t.Fatalf("mean %v", mean)
	}
	// sd = sqrt(2), se = 1, ci = 1.96
	if !almost(ci, 1.96, 1e-9) {
		t.Fatalf("ci %v, want 1.96", ci)
	}
	if m, c := MeanAndCI95(nil); m != 0 || c != 0 {
		t.Fatal("empty input should give zeros")
	}
	if _, c := MeanAndCI95([]float64{3}); c != 0 {
		t.Fatal("single value should give zero CI")
	}
}
