package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fadewich/internal/rng"
	"fadewich/internal/stream"
)

// ingestBody renders a POST /v1/ticks body shaped like a producer's:
// per step, one tick line for each office and an input line ahead of
// every 16th tick. Samples are integer dBm when intDBm is set, as every
// producer in the repository sends them, and otherwise the shortest
// text of float32-valued float64s (17 significant digits for most).
func ingestBody(names []string, steps, streams int, src *rng.Source, intDBm bool) (body []byte, lines int) {
	for step := 0; step < steps; step++ {
		for i, name := range names {
			if (step*len(names)+i)%16 == 0 {
				body = append(body, `{"office":"`...)
				body = append(body, name...)
				body = append(body, `","input":`...)
				body = strconv.AppendInt(body, int64(i%2), 10)
				body = append(body, "}\n"...)
				lines++
			}
			body = append(body, `{"office":"`...)
			body = append(body, name...)
			body = append(body, `","rssi":[`...)
			for k := 0; k < streams; k++ {
				if k > 0 {
					body = append(body, ',')
				}
				v := -60 + src.Normal(0, 3)
				if intDBm {
					body = strconv.AppendInt(body, int64(math.Round(v)), 10)
				} else {
					body = strconv.AppendFloat(body, float64(float32(v)), 'g', -1, 64)
				}
			}
			body = append(body, "]}\n"...)
			lines++
		}
	}
	return body, lines
}

// FuzzTickJSONL checks the direct scanner against encoding/json: any
// line, canonical or not, must decode to the same error, and without
// an error to an equal record (see sameRecord). Each line is decoded
// after a canonical one, so a record that keeps stale scratch storage
// shows up too.
func FuzzTickJSONL(f *testing.F) {
	for _, tc := range tickParseCases {
		f.Add([]byte(tc.line))
	}
	for _, intDBm := range []bool{false, true} {
		body, _ := ingestBody([]string{"office-000"}, 1, 12, rng.New(7), intDBm)
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d tickDecoder
		var got tickLine
		if err := d.decode([]byte(`{"office":"warm-up","rssi":[-1.5,2,3]}`), &got); err != nil {
			t.Fatal(err)
		}
		canonical := d.scan(line, &got)
		err := d.decode(line, &got)
		var want tickLine
		wantErr := json.Unmarshal(line, &want)
		if canonical && wantErr != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", line, wantErr)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, encoding/json %v", line, err, wantErr)
		}
		if err == nil && !sameRecord(got, want) {
			t.Fatalf("%q: decoded %#v, encoding/json %#v", line, got, want)
		}
	})
}

// sameRecord reports whether a and b are deep-equal, nil RSSI and Input
// included, with the RSSI samples compared by bit pattern, so that −0
// and +0 differ.
func sameRecord(a, b tickLine) bool {
	if (a.RSSI == nil) != (b.RSSI == nil) || !slices.EqualFunc(a.RSSI, b.RSSI, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}) {
		return false
	}
	a.RSSI, b.RSSI = nil, nil
	return reflect.DeepEqual(a, b)
}

// BenchmarkIngestJSONL measures the daemon's tick-JSONL ingest: line
// scanning, record decoding, the office lookup and Push/PushInput,
// for 8 offices of 12 RSSI streams (4 sensors). The queues drop their
// oldest tick when full, so no dispatch runs inside the loop.
func BenchmarkIngestJSONL(b *testing.B) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("office-%03d", i)
	}
	specNames := make([]string, len(names))
	for i, n := range names {
		specNames[i] = fmt.Sprintf(`{"name": %q}`, n)
	}
	spec := `{"defaults": {"sensors": 4}, "offices": [` + strings.Join(specNames, ", ") + `]}`
	srv, _ := newTestServer(b, spec, func(c *Config) {
		c.Queue = 64
		c.OnFull = stream.DropOldest
	})
	body, lines := ingestBody(names, 32, 12, rng.New(7), false)

	var res ingestResult
	if err := srv.ingestJSONL(bytes.NewReader(body), &res, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ingestJSONL(bytes.NewReader(body), &res, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/line")
}

// BenchmarkIngestJSONLTraining measures the same ingest on a body
// shaped like one training POST: 128 offices × 500 steps of 12 RSSI
// streams, so the body is decoded in many chunks at once. Sub-benchmark
// float32 writes float32-valued samples (about 17 MB); int-dbm writes
// the integer dBm producers send (about 4 MB).
func BenchmarkIngestJSONLTraining(b *testing.B) {
	for _, bc := range []struct {
		name   string
		intDBm bool
	}{{"float32", false}, {"int-dbm", true}} {
		b.Run(bc.name, func(b *testing.B) { benchmarkIngestJSONLTraining(b, bc.intDBm) })
	}
}

func benchmarkIngestJSONLTraining(b *testing.B, intDBm bool) {
	names := make([]string, 128)
	specNames := make([]string, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("office-%03d", i)
		specNames[i] = fmt.Sprintf(`{"name": %q}`, names[i])
	}
	spec := `{"defaults": {"sensors": 4}, "offices": [` + strings.Join(specNames, ", ") + `]}`
	srv, _ := newTestServer(b, spec, func(c *Config) {
		c.Queue = 64
		c.OnFull = stream.DropOldest
	})
	body, lines := ingestBody(names, 500, 12, rng.New(7), intDBm)

	var res ingestResult
	if err := srv.ingestJSONL(bytes.NewReader(body), &res, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ingestJSONL(bytes.NewReader(body), &res, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/line")
}
