// Go halves of the AVX2 assembly kernels (avx2_amd64.s): scalar
// fallback for bailed groups and ragged tails, plus the avx2Funcs
// implementation set. Kernels outside the assembly hot set (the simple
// fused column ops) reuse the portable implementations, which the
// compiler already emits as VEX code under GOAMD64=v3.

package vmath

import "math"

// lanes is the SIMD group width of the AVX2 kernels: four float64 per
// 256-bit YMM register.
const lanes = 4

// The assembly kernels process dst in 4-lane groups and return the
// number of elements completed (a multiple of 4). The gated kernels
// (exp, log, normFactor) stop early at the first group containing a
// special-case input, which the wrappers reprocess with the scalar
// helpers before re-entering; the unconditional kernels always return
// floor(n/4)·4.
func expAVX2(dst, x []float64) int
func logAVX2(dst, x []float64) int
func normFactorAVX2(dst, q []float64) int
func normFactorFastAVX2(dst, q []float64) int
func hypotAVX2(dst, x, y []float64) int
func starUniformAVX2(dst []float64, s1 []uint64) int
func pairNormSqAVX2(q, d []float64) int
func boxMullerScaleAVX2(out, us, vs, fs []float64) int
func compactAcceptAVX2(us, vs, qs, ds, ps []float64) int
func arNoiseAVX2(out, ar, base, z []float64, att, arCoef, innov float64) int
func arMotionNoiseAVX2(out, ar, base, z []float64, att, arCoef, innov, sd float64) int
func roundClampAVX2(dst []float64, lo, hi float64) int
func roundScaleClampAVX2(dst []float64, step, invStep, lo, hi float64) int
func clampRangeAVX2(dst []float64, lo, hi float64) int

// gatedLoop drives a bailing assembly kernel over dst/x: assembly for
// runs of fast-path groups, the scalar helper for the group the
// assembly bailed on and for the tail.
func gatedLoop(dst, x []float64, asm func(dst, x []float64) int, scalar func(float64) float64) {
	n := len(dst)
	x = x[:n]
	i := 0
	for i+lanes <= n {
		i += asm(dst[i:], x[i:n])
		if i+lanes <= n {
			// The assembly bailed: this group has a special-case lane.
			dst[i] = scalar(x[i])
			dst[i+1] = scalar(x[i+1])
			dst[i+2] = scalar(x[i+2])
			dst[i+3] = scalar(x[i+3])
			i += lanes
		}
	}
	for ; i < n; i++ {
		dst[i] = scalar(x[i])
	}
}

// roundQuantAVX2 dispatches on step once (like roundQuantLoop), runs
// the matching unconditional assembly body over the complete groups and
// finishes the tail with the shared scalar loop.
func roundQuantAVX2(dst []float64, step, invStep, lo, hi float64) {
	var i int
	switch {
	case step == 1:
		i = roundClampAVX2(dst, lo, hi)
	case step > 0:
		i = roundScaleClampAVX2(dst, step, invStep, lo, hi)
	default:
		i = clampRangeAVX2(dst, lo, hi)
	}
	roundQuantLoop(dst[i:], step, invStep, lo, hi)
}

var avx2Funcs = funcs{
	name: "avx2-amd64",
	path: "avx2",
	expSlice: func(dst, x []float64) {
		gatedLoop(dst, x, expAVX2, exp1)
	},
	logSlice: func(dst, x []float64) {
		gatedLoop(dst, x, logAVX2, log1)
	},
	hypotSlice: func(dst, x, y []float64) {
		n := len(dst)
		x, y = x[:n], y[:n]
		i := hypotAVX2(dst, x, y)
		for ; i < n; i++ {
			a, b := x[i], y[i]
			dst[i] = math.Sqrt(a*a + b*b)
		}
	},
	normFactor: func(dst, q []float64) {
		gatedLoop(dst, q, normFactorAVX2, normFactor1)
	},
	normFactorFast: func(dst, q []float64) {
		gatedLoop(dst, q, normFactorFastAVX2, normFactorFast1)
	},
	starUniform: func(dst []float64, s1 []uint64) {
		n := len(dst)
		s1 = s1[:n]
		i := starUniformAVX2(dst, s1)
		for ; i < n; i++ {
			dst[i] = starUniform1(s1[i])
		}
	},
	pairNormSq: func(q, d []float64) {
		n := len(q)
		d = d[:2*n]
		j := pairNormSqAVX2(q, d)
		for ; j < n; j++ {
			u, v := d[2*j], d[2*j+1]
			q[j] = u*u + v*v
		}
	},
	boxMullerScale: func(out, us, vs, fs []float64) {
		n := len(fs)
		out, us, vs = out[:2*n], us[:n], vs[:n]
		j := boxMullerScaleAVX2(out, us, vs, fs)
		for ; j < n; j++ {
			f := fs[j]
			out[2*j] = us[j] * f
			out[2*j+1] = vs[j] * f
		}
	},
	compactAccept: func(us, vs, qs, ds, ps []float64) int {
		n := len(ps)
		acc := compactAcceptAVX2(us, vs, qs, ds, ps)
		for j := n &^ 3; j < n; j++ {
			q := ps[j]
			us[acc], vs[acc], qs[acc] = ds[2*j], ds[2*j+1], q
			if !(q == 0 || q >= 1) { // NaN accepted, matching the reject test
				acc++
			}
		}
		return acc
	},
	arNoise: func(out, ar, base, z []float64, att, arCoef, innov float64) {
		n := len(out)
		ar, base, z = ar[:n], base[:n], z[:n]
		k := arNoiseAVX2(out, ar, base, z, att, arCoef, innov)
		for ; k < n; k++ {
			a := arCoef*ar[k] + innov*z[k]
			ar[k] = a
			out[k] = base[k] - att + a
		}
	},
	arMotionNoise: func(out, ar, base, z []float64, att, arCoef, innov, sd float64) {
		n := len(out)
		ar, base, z = ar[:n], base[:n], z[:2*n]
		k := arMotionNoiseAVX2(out, ar, base, z, att, arCoef, innov, sd)
		for ; k < n; k++ {
			a := arCoef*ar[k] + innov*z[2*k]
			ar[k] = a
			out[k] = base[k] - att + a + sd*z[2*k+1]
		}
	},
	scaleSlice:    portableFuncs.scaleSlice,
	axpySlice:     portableFuncs.axpySlice,
	axpyClamp:     portableFuncs.axpyClamp,
	sqrtSlice:     portableFuncs.sqrtSlice,
	clampMax:      portableFuncs.clampMax,
	roundQuant:    roundQuantAVX2,
	excessPath:    portableFuncs.excessPath,
	distToSeg:     portableFuncs.distToSeg,
	accumSqScaled: portableFuncs.accumSqScaled,
}
