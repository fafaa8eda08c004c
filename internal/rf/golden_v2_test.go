package rf

import "testing"

// Model-version-2 golden hashes, pinned with the same harness (seeds,
// sensors, body scripts, tick counts) as the version 1 goldens in
// golden_test.go. Version 2 is its own determinism contract: the
// kernels behind it (vmath, rng.FillNormals) are platform-independent
// by construction, so these hashes must reproduce bit for bit on every
// platform and under every FADEWICH_VMATH path. Update them only for
// a deliberate, documented version-2 model change; performance work
// must not move them.
//
// Under the default 1 dB quantisation the three v1 scenarios come out
// byte-identical under version 2 — the raw-path divergence (~1e-13 dB)
// never moves a sample across a rounding boundary in these runs — so
// those hashes equal their v1 counterparts, which is itself a pinned
// (run-specific, not guaranteed) property. The raw hash pins the
// unquantised version 2 stream, where the relaxed arithmetic is
// actually visible.
const (
	goldenSampleV2Default uint64 = 0xf1284ce979739fe9
	goldenSampleV2Subc4   uint64 = 0x180ae6a1d2170c18
	goldenSampleV2Quiet   uint64 = 0xa45a532d46a39de5
	goldenSampleV2Raw     uint64 = 0x6b59f92cf15d542b
)

func TestSampleGoldenV2Default(t *testing.T) {
	cfg := Config{InterferencePerHour: 3600, ModelVersion: 2}
	if got := hashSampleRun(t, cfg, 42, 400, goldenSensors(), goldenBodies); got != goldenSampleV2Default {
		t.Fatalf("golden hash %#x, want %#x: ModelVersion 2 output diverged from its pinned byte stream", got, goldenSampleV2Default)
	}
}

func TestSampleGoldenV2Subcarriers(t *testing.T) {
	cfg := Config{Subcarriers: 4, InterferencePerHour: 3600, ModelVersion: 2}
	if got := hashSampleRun(t, cfg, 43, 300, goldenSensors(), goldenBodies); got != goldenSampleV2Subc4 {
		t.Fatalf("golden hash %#x, want %#x: ModelVersion 2 output diverged from its pinned byte stream", got, goldenSampleV2Subc4)
	}
}

func TestSampleGoldenV2Quiet(t *testing.T) {
	cfg := Config{ModelVersion: 2}
	got := hashSampleRun(t, cfg, 44, 500, testSensors(), func(int) []Body { return nil })
	if got != goldenSampleV2Quiet {
		t.Fatalf("golden hash %#x, want %#x: ModelVersion 2 quiet-path output diverged from its pinned byte stream", got, goldenSampleV2Quiet)
	}
}

func TestSampleGoldenV2Raw(t *testing.T) {
	cfg := Config{InterferencePerHour: 3600, QuantStepDB: Disable, ModelVersion: 2}
	if got := hashSampleRun(t, cfg, 42, 400, goldenSensors(), goldenBodies); got != goldenSampleV2Raw {
		t.Fatalf("golden hash %#x, want %#x: ModelVersion 2 raw (unquantised) output diverged from its pinned byte stream", got, goldenSampleV2Raw)
	}
}
