package svm

import (
	"math"
	"testing"

	"fadewich/internal/rng"
)

// blobs generates gaussian clusters, one per center, n points each.
func blobs(seed uint64, n int, sd float64, centers ...[]float64) (x [][]float64, y []int) {
	src := rng.New(seed)
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			row := make([]float64, len(c))
			for j := range c {
				row[j] = c[j] + src.Normal(0, sd)
			}
			x = append(x, row)
			y = append(y, ci)
		}
	}
	return x, y
}

func accuracy(m *Multiclass, x [][]float64, y []int) float64 {
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestLinearSeparable(t *testing.T) {
	x, y := blobs(1, 40, 0.5, []float64{0, 0}, []float64{5, 5})
	m, err := TrainMulticlass(x, y, Config{Kernel: Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.98 {
		t.Fatalf("separable accuracy %v", acc)
	}
	// Novel points on either side.
	if m.Predict([]float64{-1, -1}) != 0 {
		t.Fatal("misclassified far negative point")
	}
	if m.Predict([]float64{6, 6}) != 1 {
		t.Fatal("misclassified far positive point")
	}
}

func TestXORRequiresRBF(t *testing.T) {
	// XOR: linearly inseparable; RBF must handle it.
	var x [][]float64
	var y []int
	src := rng.New(2)
	for i := 0; i < 200; i++ {
		a, b := src.Bool(0.5), src.Bool(0.5)
		px, py := 0.0, 0.0
		if a {
			px = 3
		}
		if b {
			py = 3
		}
		x = append(x, []float64{px + src.Normal(0, 0.3), py + src.Normal(0, 0.3)})
		if a != b {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	rbf, err := TrainMulticlass(x, y, Config{Kernel: RBF{Gamma: 1}, C: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(rbf, x, y); acc < 0.95 {
		t.Fatalf("RBF XOR accuracy %v", acc)
	}
	lin, err := TrainMulticlass(x, y, Config{Kernel: Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	// A linear separator cannot express XOR; some slack for the noisy
	// cluster sizes, but it must stay clearly below the RBF score.
	if acc := accuracy(lin, x, y); acc > 0.87 {
		t.Fatalf("linear kernel should fail on XOR, got %v", acc)
	}
}

func TestMulticlassFourBlobs(t *testing.T) {
	x, y := blobs(3, 30, 0.4,
		[]float64{0, 0}, []float64{6, 0}, []float64{0, 6}, []float64{6, 6})
	m, err := TrainMulticlass(x, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.95 {
		t.Fatalf("4-class accuracy %v", acc)
	}
	if got := len(m.Classes()); got != 4 {
		t.Fatalf("classes %d", got)
	}
}

func TestAutoGammaRBF(t *testing.T) {
	x, y := blobs(4, 30, 0.5, []float64{0, 0, 0}, []float64{4, 4, 4})
	m, err := TrainMulticlass(x, y, Config{Kernel: RBF{}}) // Gamma 0 → auto
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.95 {
		t.Fatalf("auto-gamma accuracy %v", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainMulticlass(nil, nil, Config{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	x, _ := blobs(5, 10, 0.3, []float64{0, 0})
	oneClass := make([]int, len(x))
	if _, err := TrainMulticlass(x, oneClass, Config{}); err == nil {
		t.Fatal("single-class training accepted")
	}
	if _, err := TrainMulticlass(x, []int{0}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestScalerStandardises(t *testing.T) {
	x := [][]float64{{10, 100}, {20, 200}, {30, 300}}
	s := FitScaler(x)
	out := s.TransformAll(x)
	for j := 0; j < 2; j++ {
		var mean, sq float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v", j, mean)
		}
		if sd := math.Sqrt(sq / 3); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d sd %v", j, sd)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	x := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := FitScaler(x)
	out := s.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Fatalf("constant feature transforms to %v, want 0", out[0])
	}
}

func TestScalerEmptyFit(t *testing.T) {
	s := FitScaler(nil)
	got := s.Transform([]float64{1, 2})
	if got[0] != 1 || got[1] != 2 {
		t.Fatal("empty scaler should pass values through")
	}
}

func TestKernels(t *testing.T) {
	a, b := []float64{1, 2}, []float64{3, 4}
	if got := (Linear{}).Eval(a, b); got != 11 {
		t.Fatalf("linear kernel %v", got)
	}
	if got := (RBF{Gamma: 0.5}).Eval(a, a); got != 1 {
		t.Fatalf("RBF self-similarity %v", got)
	}
	// ‖a−b‖² = 8 → exp(−4)
	if got := (RBF{Gamma: 0.5}).Eval(a, b); math.Abs(got-math.Exp(-4)) > 1e-12 {
		t.Fatalf("RBF kernel %v", got)
	}
	if (Linear{}).Name() == "" || (RBF{Gamma: 1}).Name() == "" {
		t.Fatal("kernels must have names")
	}
}

func TestStratifiedKFold(t *testing.T) {
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 4
	}
	folds := StratifiedKFold(labels, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds %d", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		// Class balance: each fold has 20 samples, 5 per class.
		classCount := map[int]int{}
		if len(f) != 20 {
			t.Fatalf("fold size %d", len(f))
		}
		for _, idx := range f {
			if seen[idx] {
				t.Fatalf("index %d appears twice", idx)
			}
			seen[idx] = true
			classCount[labels[idx]]++
		}
		for c, n := range classCount {
			if n != 5 {
				t.Fatalf("class %d has %d samples in fold, want 5", c, n)
			}
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d samples", len(seen))
	}
}

func TestStratifiedKFoldDeterministic(t *testing.T) {
	labels := []int{0, 0, 1, 1, 0, 1, 0, 1, 0, 1}
	a := StratifiedKFold(labels, 2, 9)
	b := StratifiedKFold(labels, 2, 9)
	for f := range a {
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatal("k-fold split not deterministic")
			}
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	x, y := blobs(6, 25, 0.6, []float64{0, 0}, []float64{3, 3})
	m1, _ := TrainMulticlass(x, y, Config{Seed: 5})
	m2, _ := TrainMulticlass(x, y, Config{Seed: 5})
	probe := []float64{1.5, 1.4}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("training not deterministic in seed")
	}
}

func TestOverlappingClassesStillMostlyCorrect(t *testing.T) {
	// Heavily overlapping blobs: the SVM cannot be perfect but must do
	// far better than chance.
	x, y := blobs(8, 100, 1.5, []float64{0, 0}, []float64{2, 2})
	m, err := TrainMulticlass(x, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, x, y); acc < 0.7 {
		t.Fatalf("overlapping accuracy %v", acc)
	}
}
