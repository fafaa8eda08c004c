package wire

import (
	"encoding/json"
	"math"
	"testing"

	"fadewich/internal/control"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/rng"
)

// marshalJSONLReference is the original reflection-based v1 encoder:
// json.Marshal of wireAction, one line per action. It is the byte-level
// specification the hand-rolled AppendJSONL must match.
func marshalJSONLReference(t *testing.T, batch []engine.OfficeAction) []byte {
	t.Helper()
	var dst []byte
	for _, a := range batch {
		rec := wireAction{
			Office:      a.Office,
			Time:        a.Action.Time,
			Type:        a.Action.Type.String(),
			Workstation: a.Action.Workstation,
			Label:       a.Action.Label,
		}
		if a.Action.Cause != 0 {
			rec.Cause = a.Action.Cause.String()
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		dst = append(dst, b...)
		dst = append(dst, '\n')
	}
	return dst
}

// TestAppendJSONLMatchesStdlib differentially tests the hand-rolled v1
// encoder against json.Marshal across the field edge cases: every known
// action type and cause plus out-of-range enum spellings, negative and
// large offices/workstations/labels, and times covering zero, negative
// zero, denormals, the 'e'-format regimes on both sides (abs < 1e-6,
// abs >= 1e21) with single- and double-digit exponents, and a wide
// random sweep of tick-grid and raw float64 values.
func TestAppendJSONLMatchesStdlib(t *testing.T) {
	times := []float64{
		0, math.Copysign(0, -1), 1.2, -1.4, 0.30000000000000004,
		512.5, 1e-6, 9.999999e-7, -9.999999e-7, 1e-7, 5e-324,
		-5e-324, 1e20, 1e21, -1e21, 1e22, 2.5e-15, 3.14e-100,
		1.7976931348623157e308, 4.9406564584124654e-310,
		1e-9, -2e-10, 123456789.125, -0.000125,
	}
	var batch []engine.OfficeAction
	add := func(a engine.OfficeAction) { batch = append(batch, a) }
	for i, tm := range times {
		add(engine.OfficeAction{
			Office: i - 2,
			Action: core.Action{
				Time:        tm,
				Type:        core.ActionType(i % 6), // includes unknown spellings "action(4)", "action(5)"
				Workstation: i * 7,
				Cause:       control.Cause(i % 5), // includes unknown "cause(4)"
				Label:       -i,
			},
		})
	}
	src := rng.New(99)
	for i := 0; i < 2000; i++ {
		tm := float64(src.Intn(1<<30)) * 0.2 // tick-grid times, the real payload
		if i%3 == 0 {
			tm = src.Normal(0, 1) * math.Pow(10, float64(src.Intn(60)-30))
		}
		add(engine.OfficeAction{
			Office: src.Intn(2048),
			Action: core.Action{
				Time:        tm,
				Type:        core.ActionType(src.Intn(4)),
				Workstation: src.Intn(64),
				Cause:       control.Cause(src.Intn(4)),
				Label:       src.Intn(3) - 1,
			},
		})
	}
	got := AppendJSONL(nil, batch)
	want := marshalJSONLReference(t, batch)
	if string(got) != string(want) {
		// Find the first differing line for a readable failure.
		g, w := string(got), string(want)
		line, start := 0, 0
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				end := i + 120
				if end > len(g) {
					end = len(g)
				}
				t.Fatalf("line %d (byte %d) diverges from json.Marshal:\ngot  …%s\nwant …%s",
					line, i, g[start:end], w[start:min(end, len(w))])
			}
			if g[i] == '\n' {
				line++
				start = i + 1
			}
		}
		t.Fatalf("length mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

// TestAppendJSONLNoAllocs locks the hand-rolled encoder at zero
// allocations once the destination buffer is warm — the reason it
// replaced json.Marshal on the sink hot path.
func TestAppendJSONLNoAllocs(t *testing.T) {
	batch := testBatch()
	buf := AppendJSONL(nil, batch) // size the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendJSONL(buf[:0], batch)
	})
	if allocs != 0 {
		t.Fatalf("AppendJSONL allocates %.1f times per batch, want 0", allocs)
	}
}

// benchBatch builds a realistic merged batch: 512 actions across 64
// offices on a 0.2 s tick grid.
func benchBatch() []engine.OfficeAction {
	src := rng.New(7)
	batch := make([]engine.OfficeAction, 512)
	for i := range batch {
		batch[i] = engine.OfficeAction{
			Office: i % 64,
			Action: core.Action{
				Time:        float64(src.Intn(1<<20)) * 0.2,
				Type:        core.ActionType(src.Intn(4) + 1),
				Workstation: src.Intn(8),
				Cause:       control.Cause(src.Intn(4)),
				Label:       src.Intn(2),
			},
		}
	}
	return batch
}

// BenchmarkEncodeFrame measures the full per-batch sink encode cost —
// payload plus framing and CRC — as driven by the segment and TCP
// sinks.
func BenchmarkEncodeFrame(b *testing.B) {
	batch := benchBatch()
	b.Run("v1", func(b *testing.B) {
		var buf []byte
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err = AppendFrame(buf[:0], V1JSONL, batch)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(batch)), "ns/action")
	})
}
