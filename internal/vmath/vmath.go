// Package vmath provides batched float64 kernels for the simulator's
// per-tick hot loops: exponentials, distance computations and the small
// fused column operations the RF model's vectorised path (ModelVersion 2,
// see internal/rf) is built from.
//
// Two implementations exist behind one API:
//
//   - portable: straightforward per-element loops, compiled everywhere.
//     It is the reference semantics and the only set off amd64.
//   - avx2 (amd64): hand-written AVX2+FMA assembly for the hot set
//     (ExpSlice, LogSlice, HypotSlice, NormFactorSlice,
//     NormFactorFastSlice, StarUniformSlice, the Box–Muller trio
//     PairNormSqSlice / BoxMullerScaleSlice / CompactAcceptSlice, the
//     AR-noise recurrences and the RoundQuantSlice path), four true
//     SIMD lanes per instruction; the remaining kernels reuse the
//     portable set. Requires AVX2+FMA CPU support with OS-enabled YMM
//     state.
//
// Both implementations are bit-identical per element by construction
// (same operations, in the same order, on every lane — the assembly
// uses fused multiply-adds exactly where the portable code calls
// math.FMA and plain operations everywhere else), which the package
// tests and the FuzzVmathKernels target enforce. LogSlice is
// additionally bit-identical to math.Log on every platform that uses
// the fdlibm algorithm (the pure-Go stdlib and the amd64 assembly both
// do). ExpSlice evaluates the amd64 stdlib's FMA exp algorithm via
// math.FMA — exact fused semantics everywhere — so it is bit-identical
// to math.Exp on FMA-capable amd64 (where the stdlib takes that same
// path) and platform-independent, at worst ~1 ulp from the local
// stdlib elsewhere. The model-version divergence budget (rf's v1-vs-v2
// equivalence bound) is spent where the kernels deliberately relax
// stdlib semantics: HypotSlice, ExcessPathSlice and DistToSegSlice
// compute sqrt(x²+y²) directly instead of math.Hypot's overflow-safe
// scaled form — exact for the office-scale coordinates the simulator
// feeds them, one ulp off in general.
//
// Selection happens once at init: the avx2 implementation is used on
// amd64 with AVX2+FMA+OSXSAVE, portable everywhere else. The
// environment override FADEWICH_VMATH=portable|avx2 forces a specific
// path, loudly failing, not falling back, when the forced path is
// unsupported or the value is unknown. Impl and ActivePath report the
// decision.
//
// All kernels tolerate dst aliasing their input slice exactly (in-place
// use); partial overlap is undefined. Input slices must be at least
// len(dst) long.
package vmath

// funcs is one complete kernel implementation set. The exported API
// dispatches through the active set chosen at init.
type funcs struct {
	name           string // descriptive name, reported by Impl
	path           string // FADEWICH_VMATH vocabulary, reported by ActivePath
	expSlice       func(dst, x []float64)
	logSlice       func(dst, x []float64)
	hypotSlice     func(dst, x, y []float64)
	normFactor     func(dst, q []float64)
	normFactorFast func(dst, q []float64)
	scaleSlice     func(dst []float64, a float64)
	axpySlice      func(dst, x []float64, a float64)
	axpyClamp      func(dst, x []float64, a, lo, hi float64)
	sqrtSlice      func(dst []float64)
	clampMax       func(dst []float64, hi float64)
	starUniform    func(dst []float64, s1 []uint64)
	pairNormSq     func(q, d []float64)
	boxMullerScale func(out, us, vs, fs []float64)
	compactAccept  func(us, vs, qs, ds, ps []float64) int
	arNoise        func(out, ar, base, z []float64, att, arCoef, innov float64)
	arMotionNoise  func(out, ar, base, z []float64, att, arCoef, innov, sd float64)
	roundQuant     func(dst []float64, step, invStep, lo, hi float64)
	excessPath     func(dst, ax, ay, bx, by, segLen []float64, px, py float64)
	distToSeg      func(dst, ax, ay, dx, dy, l2 []float64, px, py float64)
	accumSqScaled  func(dst, x []float64, c float64)
}

// active is the implementation in use; dispatch_*.go selects it at init.
var active = &portableFuncs

// Impl reports which implementation is active: "portable" or
// "avx2-amd64".
func Impl() string { return active.name }

// ActivePath reports the active implementation in FADEWICH_VMATH
// vocabulary: "portable" or "avx2". Callers log it at startup
// and attach it to metrics so benchmark artifacts are attributable to
// the kernel path that produced them.
func ActivePath() string { return active.path }

// ExpSlice sets dst[i] = exp(x[i]). Bit-identical to math.Exp on
// FMA-capable amd64; platform-independent (see the package comment).
func ExpSlice(dst, x []float64) { active.expSlice(dst, x) }

// LogSlice sets dst[i] = log(x[i]). Bit-identical to math.Log.
func LogSlice(dst, x []float64) { active.logSlice(dst, x) }

// HypotSlice sets dst[i] = sqrt(x[i]² + y[i]²). Unlike math.Hypot it does
// not scale against overflow/underflow: intended for geometry whose
// magnitudes are far from the float64 range limits.
func HypotSlice(dst, x, y []float64) { active.hypotSlice(dst, x, y) }

// NormFactorSlice sets dst[i] = sqrt(-2·log(q[i])/q[i]), the Box-Muller
// radius factor for an accepted polar pair with squared norm q.
// Bit-identical to the scalar expression math.Sqrt(-2*math.Log(q)/q).
func NormFactorSlice(dst, q []float64) { active.normFactor(dst, q) }

// NormFactorFastSlice computes the same factor as NormFactorSlice using
// a table-driven log (7-bit reciprocal lookup + degree-7 log1p Taylor)
// instead of the full fdlibm algorithm. It is not bit-identical to the
// scalar expression: the absolute log error is ~1.5e-16, giving a
// worst-case relative factor error of ~3e-12 at the q → 1 guard
// boundary (where |log q| bottoms out at 2⁻¹⁴) and ≲1 ulp elsewhere.
// Non-normal q and q beyond the guard fall back to the exact
// NormFactorSlice element. Results are identical on every platform
// (plain float64 mul/add only).
func NormFactorFastSlice(dst, q []float64) { active.normFactorFast(dst, q) }

// StarUniformSlice applies the xoshiro256** output scramble to raw s1
// state words and maps the results onto (-1, 1):
// dst[i] = 2·(float64((rotl(s1[i]·5, 7)·9)>>11) / 2⁵³) − 1, the
// Box-Muller coordinate mapping of rng's rejection loop. The scramble
// is integer-exact and every float operation except the final
// subtraction is exact, so results are bit-identical across
// implementations and platforms. s1 must be at least len(dst) long.
func StarUniformSlice(dst []float64, s1 []uint64) { active.starUniform(dst, s1) }

// PairNormSqSlice sets q[j] = d[2j]² + d[2j+1]², the squared norm of
// each consecutive coordinate pair — the polar rejection statistic of
// rng's Box-Muller loop. d must be at least 2·len(q) long.
func PairNormSqSlice(q, d []float64) { active.pairNormSq(q, d) }

// BoxMullerScaleSlice interleaves scaled polar pairs into the output
// row: out[2j] = us[j]·fs[j], out[2j+1] = vs[j]·fs[j]. out must be at
// least 2·len(fs) long; us and vs at least len(fs).
func BoxMullerScaleSlice(out, us, vs, fs []float64) { active.boxMullerScale(out, us, vs, fs) }

// CompactAcceptSlice runs the polar rejection test over the pair norms
// ps (computed by PairNormSqSlice from the coordinate pairs ds) and
// left-packs the accepted pairs: for each j with ps[j] accepted — the
// reject test is ps[j] == 0 || ps[j] >= 1, as in rng's scalar loop —
// it appends (ds[2j], ds[2j+1], ps[j]) to (us, vs, qs) and returns the
// number appended. us, vs and qs must each have len(ps) writable
// elements; slots at and beyond the returned count are left with
// unspecified values. ds must be at least 2·len(ps) long.
func CompactAcceptSlice(us, vs, qs, ds, ps []float64) int {
	return active.compactAccept(us, vs, qs, ds, ps)
}

// ARNoiseSlice advances one link's AR(1) noise states and composes the
// static-link output row: a = arCoef·ar[k] + innov·z[k] (stored back to
// ar[k]), out[k] = base[k] − att + a. z must be at least len(out) long.
func ARNoiseSlice(out, ar, base, z []float64, att, arCoef, innov float64) {
	active.arNoise(out, ar, base, z, att, arCoef, innov)
}

// ARMotionNoiseSlice is ARNoiseSlice for a link with body motion: the
// per-stream draws come in pairs, z[2k] driving the AR innovation and
// z[2k+1] the motion term: a = arCoef·ar[k] + innov·z[2k] (stored back),
// out[k] = base[k] − att + a + sd·z[2k+1]. z must be at least
// 2·len(out) long.
func ARMotionNoiseSlice(out, ar, base, z []float64, att, arCoef, innov, sd float64) {
	active.arMotionNoise(out, ar, base, z, att, arCoef, innov, sd)
}

// ScaleSlice sets dst[i] *= a.
func ScaleSlice(dst []float64, a float64) { active.scaleSlice(dst, a) }

// AxpySlice sets dst[i] += a·x[i].
func AxpySlice(dst, x []float64, a float64) { active.axpySlice(dst, x, a) }

// AxpyClamp sets dst[i] = min(max(dst[i] + a·x[i], lo), hi).
func AxpyClamp(dst, x []float64, a, lo, hi float64) { active.axpyClamp(dst, x, a, lo, hi) }

// SqrtSlice sets dst[i] = sqrt(dst[i]) in place.
func SqrtSlice(dst []float64) { active.sqrtSlice(dst) }

// ClampMaxSlice sets dst[i] = min(dst[i], hi).
func ClampMaxSlice(dst []float64, hi float64) { active.clampMax(dst, hi) }

// RoundQuantSlice applies receiver quantisation and clamping in one
// pass: step == 1 rounds to integers, step > 0 rounds to multiples of
// step via the precomputed invStep = 1/step, step <= 0 leaves the value
// unquantised; the result is then clamped to [lo, hi].
func RoundQuantSlice(dst []float64, step, invStep, lo, hi float64) {
	active.roundQuant(dst, step, invStep, lo, hi)
}

// ExcessPathSlice sets dst[i] to the excess path length of segment i's
// endpoints A=(ax[i],ay[i]), B=(bx[i],by[i]) via the point (px,py):
// |A−P| + |P−B| − segLen[i], with the distances computed as raw
// sqrt-of-squares (see HypotSlice).
func ExcessPathSlice(dst, ax, ay, bx, by, segLen []float64, px, py float64) {
	active.excessPath(dst, ax, ay, bx, by, segLen, px, py)
}

// DistToSegSlice sets dst[i] to the distance from the point (px,py) to
// segment i given as origin (ax[i],ay[i]), direction (dx[i],dy[i]) and
// squared length l2[i]; l2[i] == 0 degenerates to point distance. The
// projection parameter replicates geom.Segment.DistToPoint (division by
// l2, clamp to [0,1]); only the final distance uses the raw sqrt form.
func DistToSegSlice(dst, ax, ay, dx, dy, l2 []float64, px, py float64) {
	active.distToSeg(dst, ax, ay, dx, dy, l2, px, py)
}

// AccumSqScaledSlice sets dst[i] += (c·x[i])², with the scaled term
// computed first and then squared — the variance-accumulation order of
// the scalar motion-noise model.
func AccumSqScaledSlice(dst, x []float64, c float64) { active.accumSqScaled(dst, x, c) }
