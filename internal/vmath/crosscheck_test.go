package vmath

import (
	"math"
	"testing"
)

// kernelInputs is one shared input set all kernels run over in the
// cross-implementation checks.
type kernelInputs struct {
	x, y   []float64
	px, py float64
}

// deriveInputs builds a kernel input set of length n from raw values
// (cycled), so fuzz and edge cases drive every kernel with the same
// bytes.
func deriveInputs(vals []float64, n int) *kernelInputs {
	if len(vals) == 0 {
		vals = []float64{0}
	}
	in := &kernelInputs{x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		in.x[i] = vals[i%len(vals)]
		in.y[i] = vals[(i*7+3)%len(vals)]
	}
	in.px = vals[0]
	in.py = vals[len(vals)/2]
	return in
}

// runKernels executes every kernel of the given implementation set over
// the inputs and returns the named outputs.
func runKernels(fs *funcs, in *kernelInputs) map[string][]float64 {
	n := len(in.x)
	out := map[string][]float64{}
	grab := func(name string, run func(dst []float64)) {
		dst := make([]float64, n)
		copy(dst, in.y) // kernels that accumulate/modify start from y
		run(dst)
		out[name] = dst
	}
	// l2 must be consistent with (dx,dy) for DistToSegSlice; include
	// exact zeros to exercise the degenerate branch.
	dx, dy, l2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		dx[i], dy[i] = in.y[i], in.x[(i+1)%n]
		if i%5 == 0 {
			dx[i], dy[i] = 0, 0
		}
		l2[i] = dx[i]*dx[i] + dy[i]*dy[i]
	}
	grab("exp", func(dst []float64) { fs.expSlice(dst, in.x) })
	grab("log", func(dst []float64) { fs.logSlice(dst, in.x) })
	grab("hypot", func(dst []float64) { fs.hypotSlice(dst, in.x, in.y) })
	grab("normFactor", func(dst []float64) { fs.normFactor(dst, in.x) })
	grab("normFactorFast", func(dst []float64) { fs.normFactorFast(dst, in.x) })
	grab("scale", func(dst []float64) { fs.scaleSlice(dst, in.px) })
	grab("axpy", func(dst []float64) { fs.axpySlice(dst, in.x, in.px) })
	grab("axpyClamp", func(dst []float64) { fs.axpyClamp(dst, in.x, in.px, -10, 10) })
	grab("sqrt", func(dst []float64) { fs.sqrtSlice(dst) })
	grab("clampMax", func(dst []float64) { fs.clampMax(dst, in.py) })
	raw := make([]uint64, n)
	pairs := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		raw[i] = math.Float64bits(in.x[i]) // arbitrary 64-bit patterns as generator state words
		pairs[2*i], pairs[2*i+1] = in.x[i], in.y[i]
	}
	grab("starUniform", func(dst []float64) { fs.starUniform(dst, raw) })
	grab("pairNormSq", func(dst []float64) { fs.pairNormSq(dst, pairs) })
	// The interleaving kernel writes 2n outputs and the AR kernels mutate
	// their ar column; capture those slices directly.
	grabNamed := func(name string, vals []float64) { out[name] = vals }
	bmOut := make([]float64, 2*n)
	fs.boxMullerScale(bmOut, in.x, in.y, in.y)
	grabNamed("boxMullerScale", bmOut)
	arCol := append([]float64{}, in.y...)
	anOut := make([]float64, n)
	fs.arNoise(anOut, arCol, in.x, in.y, in.px, 0.9, 0.35)
	grabNamed("arNoise-out", anOut)
	grabNamed("arNoise-ar", arCol)
	// compactAccept: in.x serves as the rejection statistic (edge input
	// sets include 0, NaN and values on both sides of 1). Only the
	// accepted prefix and the count are contractual; slots beyond the
	// count are unspecified and excluded from the comparison.
	caUs, caVs, caQs := make([]float64, n), make([]float64, n), make([]float64, n)
	acc := fs.compactAccept(caUs, caVs, caQs, pairs, in.x)
	grabNamed("compactAccept-us", caUs[:acc])
	grabNamed("compactAccept-vs", caVs[:acc])
	grabNamed("compactAccept-qs", caQs[:acc])
	grabNamed("compactAccept-n", []float64{float64(acc)})
	arCol2 := append([]float64{}, in.x...)
	amOut := make([]float64, n)
	fs.arMotionNoise(amOut, arCol2, in.y, pairs, in.py, 0.9, 0.35, 1.7)
	grabNamed("arMotionNoise-out", amOut)
	grabNamed("arMotionNoise-ar", arCol2)
	grab("roundQuant1", func(dst []float64) { fs.roundQuant(dst, 1, 1, -95, -20) })
	grab("roundQuantHalf", func(dst []float64) { fs.roundQuant(dst, 0.5, 2, -95, -20) })
	grab("roundQuantOff", func(dst []float64) { fs.roundQuant(dst, 0, 0, -95, -20) })
	grab("excessPath", func(dst []float64) { fs.excessPath(dst, in.x, in.y, in.y, in.x, in.x, in.px, in.py) })
	grab("distToSeg", func(dst []float64) { fs.distToSeg(dst, in.x, in.y, dx, dy, l2, in.px, in.py) })
	grab("accumSqScaled", func(dst []float64) { fs.accumSqScaled(dst, in.x, in.px) })
	return out
}

// awkwardLengths are the slice lengths every cross-check sweeps: empty,
// single element, one below/at/above the 4-float64 SIMD group width of
// the AVX2 path, and a multi-group length with a ragged 3-element tail
// (4·lane+3) — pinning the assembly kernels' bail and tail handling.
var awkwardLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 19}

// checkImplsAgree runs all kernels under the portable set and every
// alternative set available on this machine and reports any bitwise
// divergence (NaNs of any payload are equal).
func checkImplsAgree(t *testing.T, vals []float64, n int) {
	t.Helper()
	sets := altImplSets()
	if len(sets) == 0 {
		t.Skip("no alternative implementation on this machine")
	}
	in := deriveInputs(vals, n)
	a := runKernels(&portableFuncs, in)
	for _, alt := range sets {
		b := runKernels(alt, in)
		for name, av := range a {
			bv := b[name]
			if len(av) != len(bv) {
				t.Fatalf("kernel %s output length diverges (n=%d): portable %d, %s %d",
					name, n, len(av), alt.name, len(bv))
			}
			for i := range av {
				if !bitsEqual(av[i], bv[i]) && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
					t.Fatalf("kernel %s diverges at [%d] (n=%d): portable %v (%#x), %s %v (%#x)",
						name, i, n, av[i], math.Float64bits(av[i]), alt.name, bv[i], math.Float64bits(bv[i]))
				}
			}
		}
	}
}

func TestPortableVsAltEdgeInputs(t *testing.T) {
	for _, n := range awkwardLengths {
		checkImplsAgree(t, edgeInputs, n)
	}
	checkImplsAgree(t, edgeInputs, len(edgeInputs))
	checkImplsAgree(t, edgeInputs, 4*len(edgeInputs)+3)
}

func TestPortableVsAltSweep(t *testing.T) {
	checkImplsAgree(t, sweep(1021, 0, 800), 1021)
	checkImplsAgree(t, sweep(1024, 0, 1e-300), 1024)
	checkImplsAgree(t, sweep(513, 0, 50), 513)
}
