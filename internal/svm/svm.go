// Package svm is a from-scratch support vector machine used by the Radio
// Environment module to classify variation-window signatures (Section
// IV-D3). It provides a soft-margin binary SVM trained with the simplified
// SMO algorithm (Platt's sequential minimal optimisation with random
// second-choice heuristic), linear and RBF kernels, a one-vs-one
// multiclass wrapper with margin-aware vote tie-breaking, a z-score
// feature scaler, and stratified k-fold splitting for the evaluation
// harness's cross-validation.
package svm

import (
	"errors"
	"fmt"
	"math"

	"fadewich/internal/rng"
)

// Kernel computes inner products in feature space.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// Linear is the ordinary dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian radial basis function kernel
// K(a,b) = exp(−γ‖a−b‖²). A Gamma of 0 selects the scikit-learn-style
// automatic value 1/d (features are standardised by the multiclass
// wrapper, so per-feature variance is 1).
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Exp(-k.Gamma * sum)
}

// Name implements Kernel.
func (k RBF) Name() string { return fmt.Sprintf("rbf(γ=%.4g)", k.Gamma) }

var (
	_ Kernel = Linear{}
	_ Kernel = RBF{}
)

// Config parameterises training.
type Config struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Kernel defaults to Linear.
	Kernel Kernel
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of consecutive full passes without an
	// update before SMO declares convergence (default 5).
	MaxPasses int
	// MaxIter bounds total passes as a safety net (default 300).
	MaxIter int
	// Seed drives SMO's random second-choice heuristic.
	Seed uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.C == 0 {
		c.C = 1
	}
	if c.Kernel == nil {
		c.Kernel = Linear{}
	}
	if c.Tol == 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 5
	}
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	return c
}

// ErrNoData is returned when training is attempted with no samples.
var ErrNoData = errors.New("svm: no training samples")

// binary is a trained two-class model. Labels are {-1, +1}.
type binary struct {
	kernel Kernel
	sv     [][]float64 // support vectors
	coef   []float64   // alpha_i * y_i for each support vector
	b      float64
}

// decision returns the signed margin f(x) = Σ coef_i K(sv_i, x) + b.
func (m *binary) decision(x []float64) float64 {
	sum := m.b
	for i, v := range m.sv {
		sum += m.coef[i] * m.kernel.Eval(v, x)
	}
	return sum
}

// trainBinary runs simplified SMO over the precomputed samples. y must
// contain only −1 and +1.
func trainBinary(x [][]float64, y []float64, cfg Config, src *rng.Source) (*binary, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrNoData
	}
	// Precompute the kernel matrix; n is small (tens to a few hundred
	// samples) in every use in this system.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(x[i], x[j])
			gram[i][j] = v
			gram[j][i] = v
		}
	}

	alpha := make([]float64, n)
	var b float64
	f := func(i int) float64 {
		sum := b
		for k := 0; k < n; k++ {
			if alpha[k] != 0 {
				sum += alpha[k] * y[k] * gram[k][i]
			}
		}
		return sum
	}

	passes, iter := 0, 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := src.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cfg.C)
				hi = math.Min(cfg.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*gram[i][j] - gram[i][i] - gram[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b - ei - y[i]*(aiNew-ai)*gram[i][i] - y[j]*(ajNew-aj)*gram[i][j]
			b2 := b - ej - y[i]*(aiNew-ai)*gram[i][j] - y[j]*(ajNew-aj)*gram[j][j]
			switch {
			case aiNew > 0 && aiNew < cfg.C:
				b = b1
			case ajNew > 0 && ajNew < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iter++
	}

	m := &binary{kernel: cfg.Kernel, b: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			m.sv = append(m.sv, x[i])
			m.coef = append(m.coef, alpha[i]*y[i])
		}
	}
	return m, nil
}

// Scaler standardises features to zero mean and unit variance, fitted on
// the training set only (the evaluation harness fits per fold to avoid
// test-set leakage).
type Scaler struct {
	mean, std []float64
}

// FitScaler learns per-feature mean and standard deviation.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	d := len(x[0])
	s := &Scaler{mean: make([]float64, d), std: make([]float64, d)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			dv := v - s.mean[j]
			s.std[j] += dv * dv
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / float64(len(x)))
		if s.std[j] < 1e-12 {
			s.std[j] = 1 // constant feature: pass through centred
		}
	}
	return s
}

// Transform returns the standardised copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	if len(s.mean) == 0 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// TransformAll standardises a whole matrix.
func (s *Scaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}

// Multiclass is a one-vs-one multiclass SVM with an internal scaler.
type Multiclass struct {
	classes []int
	pairs   []pairModel
	scaler  *Scaler
}

type pairModel struct {
	a, b  int // class labels; decision > 0 votes a, else b
	model *binary
}

// TrainMulticlass fits a one-vs-one SVM over the samples. labels may be
// arbitrary non-negative ints; classes with a single sample are still
// usable (they become support vectors). It returns ErrNoData for an empty
// training set and an error if only one class is present.
func TrainMulticlass(x [][]float64, labels []int, cfg Config) (*Multiclass, error) {
	if len(x) == 0 || len(x) != len(labels) {
		return nil, ErrNoData
	}
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	if rbf, ok := cfg.Kernel.(RBF); ok && rbf.Gamma <= 0 {
		cfg.Kernel = RBF{Gamma: 1 / float64(len(x[0]))}
	}

	scaler := FitScaler(x)
	xs := scaler.TransformAll(x)

	seen := make(map[int]bool)
	var classes []int
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			classes = append(classes, l)
		}
	}
	sortInts(classes)
	if len(classes) < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", len(classes))
	}

	mc := &Multiclass{classes: classes, scaler: scaler}
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			ca, cb := classes[i], classes[j]
			var px [][]float64
			var py []float64
			for k, l := range labels {
				switch l {
				case ca:
					px = append(px, xs[k])
					py = append(py, 1)
				case cb:
					px = append(px, xs[k])
					py = append(py, -1)
				}
			}
			m, err := trainBinary(px, py, cfg, src.Split())
			if err != nil {
				return nil, fmt.Errorf("svm: training pair (%d,%d): %w", ca, cb, err)
			}
			mc.pairs = append(mc.pairs, pairModel{a: ca, b: cb, model: m})
		}
	}
	return mc, nil
}

// Predict returns the class label for x by one-vs-one voting; ties break
// on the summed absolute margins of the winning votes.
func (m *Multiclass) Predict(x []float64) int {
	xs := m.scaler.Transform(x)
	votes := make(map[int]int, len(m.classes))
	margin := make(map[int]float64, len(m.classes))
	for _, p := range m.pairs {
		d := p.model.decision(xs)
		if d >= 0 {
			votes[p.a]++
			margin[p.a] += d
		} else {
			votes[p.b]++
			margin[p.b] -= d
		}
	}
	best := m.classes[0]
	for _, c := range m.classes[1:] {
		if votes[c] > votes[best] || (votes[c] == votes[best] && margin[c] > margin[best]) {
			best = c
		}
	}
	return best
}

// Classes returns the sorted class labels the model was trained on.
func (m *Multiclass) Classes() []int {
	out := make([]int, len(m.classes))
	copy(out, m.classes)
	return out
}

// sortInts is insertion sort; class lists are tiny and this avoids pulling
// in sort for a hot path that isn't.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// StratifiedKFold partitions sample indices into k folds preserving class
// proportions. It returns fold index lists; fold f's test set is the f-th
// list. Deterministic in seed.
func StratifiedKFold(labels []int, k int, seed uint64) [][]int {
	if k < 2 {
		k = 2
	}
	src := rng.New(seed)
	byClass := make(map[int][]int)
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	folds := make([][]int, k)
	// Iterate classes in sorted order for determinism.
	var classes []int
	for c := range byClass {
		classes = append(classes, c)
	}
	sortInts(classes)
	next := 0
	for _, c := range classes {
		idx := byClass[c]
		src.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, s := range idx {
			folds[next%k] = append(folds[next%k], s)
			next++
		}
	}
	return folds
}
