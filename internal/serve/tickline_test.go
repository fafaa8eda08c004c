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

// tickLineShapes are the line shapes the direct scan (tickDecoder.scan)
// must take, reject, or hand to encoding/json: −0, integers of 15 and
// 16 digits, a leading zero, an exponent, a bare minus, no samples,
// whitespace inside a canonical line, and escaped, quoted or non-ASCII
// names.
var tickLineShapes = []string{
	`{"office":"a","rssi":[-0,0,-60]}`,
	`{"office":"a","rssi":[999999999999999,-999999999999999]}`,
	`{"office":"a","rssi":[1000000000000000,-60]}`,
	`{"office":"a","rssi":[01,-60]}`,
	`{"office":"a","rssi":[-01]}`,
	`{"office":"a","rssi":[1e2,-60]}`,
	`{"office":"a","rssi":[-60,1E2]}`,
	`{"office":"a","rssi":[-,-60]}`,
	`{"office":"a","rssi":[-60,-]}`,
	`{"office":"a","rssi":[]}`,
	`{"office":"a","rssi":[-60,]}`,
	`{"office":"a","rssi":[-60 ,-61]}`,
	`{"office":"a", "rssi":[-60,-61]}`,
	`{"office" :"a","rssi":[-60,-61]}`,
	`{"office":"a","rssi":[-60,-61] }`,
	`{"office":"a","rssi":[-60,-61]}}`,
	`{"office":"a","rssi":[-60,-61]`,
	`{"office":"\u0061","rssi":[-60,-61]}`,
	`{"office":"a\"b","rssi":[-60,-61]}`,
	`{"office":"é","rssi":[-60,-61]}`,
	`{"office":"","rssi":[-60]}`,
	`{"office":"a","rssi":[-6,-600,-60.5]}`,
}

// FuzzTickJSONL holds tickDecoder to encoding/json: any line must
// decode to the same error, and without an error to an equal record
// (see lineOf and sameRecord), its samples appended to the arena; a
// line that fails must leave the arena as it was, and a line the direct
// scan takes must be one encoding/json decodes to an equal record. Each
// line is decoded after a canonical one, so a record that reads stale
// samples shows up too.
func FuzzTickJSONL(f *testing.F) {
	for _, tc := range tickParseCases {
		f.Add([]byte(tc.line))
	}
	for _, line := range tickLineShapes {
		f.Add([]byte(line))
	}
	for _, intDBm := range []bool{false, true} {
		body, _ := ingestBody([]string{"office-000"}, 1, 12, rng.New(7), intDBm)
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want tickLine
		wantErr := json.Unmarshal(line, &want)
		if want.Input != nil {
			want.RSSI = nil // an input line's samples are ignored
		}

		var d tickDecoder
		var rec tickRecord
		if err := d.decode([]byte(`{"office":"warm-up","rssi":[-1.5,2,3]}`), &rec); err != nil {
			t.Fatal(err)
		}
		arena := len(d.arena)
		err := d.decode(line, &rec)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, encoding/json %v", line, err, wantErr)
		}
		if err != nil {
			if len(d.arena) != arena {
				t.Fatalf("%q: failed but left %d samples of %d", line, len(d.arena), arena)
			}
			return
		}
		if got := lineOf(&rec, d.arena); !sameRecord(got, want) || rec.kind == recordRSSI && rec.lo != arena {
			t.Fatalf("%q: decoded %#v (%+v), encoding/json %#v", line, got, rec, want)
		}

		var s tickDecoder
		if s.scan(line, &rec) && (wantErr != nil || !sameRecord(lineOf(&rec, s.arena), want)) {
			t.Fatalf("%q: scanned %#v (%+v), encoding/json %#v, %v", line, lineOf(&rec, s.arena), rec, want, wantErr)
		}
	})
}

// lineOf renders a record and its samples in arena as the tickLine
// encoding/json decodes from the same line.
func lineOf(rec *tickRecord, arena []float64) tickLine {
	l := tickLine{Office: string(rec.name)}
	switch rec.kind {
	case recordRSSI:
		l.RSSI = append([]float64{}, arena[rec.lo:rec.hi]...)
	case recordInput:
		l.Input = &rec.input
	}
	return l
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
// the integer dBm producers send (about 4 MB). Their queues drop ticks,
// so neither runs the fleet. int-dbm-fleet posts the int-dbm body as
// POST /v1/ticks?flush=1 does, Advance and the closing Flush included,
// into a fresh 128-office fleet each time: the set-up path, fleet time
// and all.
func BenchmarkIngestJSONLTraining(b *testing.B) {
	for _, bc := range []struct {
		name   string
		intDBm bool
	}{{"float32", false}, {"int-dbm", true}} {
		b.Run(bc.name, func(b *testing.B) { benchmarkIngestJSONLTraining(b, bc.intDBm) })
	}
	b.Run("int-dbm-fleet", benchmarkIngestJSONLTrainingFleet)
}

// trainingSpec is a spec of 128 offices of 4 sensors, and their names.
func trainingSpec() (spec string, names []string) {
	names = make([]string, 128)
	specNames := make([]string, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("office-%03d", i)
		specNames[i] = fmt.Sprintf(`{"name": %q}`, names[i])
	}
	return `{"defaults": {"sensors": 4}, "offices": [` + strings.Join(specNames, ", ") + `]}`, names
}

func benchmarkIngestJSONLTrainingFleet(b *testing.B) {
	spec, names := trainingSpec()
	body, lines := ingestBody(names, 500, 12, rng.New(7), true)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, _ := newTestServer(b, spec)
		b.StartTimer()
		var res ingestResult
		if err := srv.ingestJSONL(bytes.NewReader(body), &res, srv.ing.Advance); err != nil {
			b.Fatal(err)
		}
		if err := srv.ing.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.AcceptedTicks+res.AcceptedInputs != lines {
			b.Fatalf("accepted %+v of %d lines", res, lines)
		}
		srv.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(lines)), "ns/line")
}

func benchmarkIngestJSONLTraining(b *testing.B, intDBm bool) {
	spec, names := trainingSpec()
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
