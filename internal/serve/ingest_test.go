package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"fadewich/internal/rng"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// ingestSequential is the line-by-line ingest loop the chunked
// pipeline replaced, kept as its oracle: one bufio.Scanner, each line
// decoded, looked up and pushed to p before the next is read.
func (s *Server) ingestSequential(body io.Reader, res *ingestResult, p tickPusher) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var dec tickDecoder
	var rec tickLine
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := dec.decode(line, &rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		id, ok := s.rec.IDOf(rec.Office)
		if !ok {
			return fmt.Errorf("line %d: unknown office %q", lineNo, rec.Office)
		}
		switch {
		case rec.Input != nil:
			if err := p.PushInput(id, *rec.Input); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			res.AcceptedInputs++
		case rec.RSSI != nil:
			if err := p.Push(id, rec.RSSI); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			res.AcceptedTicks++
		default:
			return fmt.Errorf("line %d: neither rssi nor input", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return nil
}

// pushRecorder forwards pushes to an Ingestor and logs each one it
// accepts: office, then the input or the samples' bits.
type pushRecorder struct {
	ing *stream.Ingestor
	log []string
}

func (r *pushRecorder) Push(office int, rssi []float64) error {
	err := r.ing.Push(office, rssi)
	if err == nil {
		bits := make([]uint64, len(rssi))
		for i, v := range rssi {
			bits[i] = math.Float64bits(v)
		}
		r.log = append(r.log, fmt.Sprintf("%d rssi %x", office, bits))
	}
	return err
}

func (r *pushRecorder) PushInput(office, workstation int) error {
	err := r.ing.PushInput(office, workstation)
	if err == nil {
		r.log = append(r.log, fmt.Sprintf("%d input %d", office, workstation))
	}
	return err
}

// ingestTwin is two identical servers fed the same bodies: want
// through ingestSequential, got through the chunked pipeline, each
// with its pushes recorded. Office "b" is online, so it emits actions.
// Queues drop their oldest tick when full, so no push blocks.
type ingestTwin struct {
	want, got       *Server
	wantLog, gotLog *pushRecorder
	wantSub, gotSub *subscriber
}

func newIngestTwin(t *testing.T) *ingestTwin {
	t.Helper()
	mk := func() (*Server, *pushRecorder, *subscriber) {
		srv, _ := newTestServer(t, specJSON("a", "b"), func(c *Config) {
			c.Queue = 64
			c.OnFull = stream.DropOldest
		})
		goOnline(t, srv, "b")
		sub, err := srv.bcast.Subscribe(false, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		return srv, &pushRecorder{ing: srv.ing}, sub
	}
	tw := &ingestTwin{}
	tw.want, tw.wantLog, tw.wantSub = mk()
	tw.got, tw.gotLog, tw.gotSub = mk()
	return tw
}

// ingest feeds one body to both servers, each through a fresh reader
// from wrap, and fails unless the error, the counts and the pushes
// match. Both servers then flush.
func (tw *ingestTwin) ingest(t *testing.T, body []byte, wrap func(io.Reader) io.Reader, chunk int) {
	t.Helper()
	var want, got ingestResult
	wantErr := tw.want.ingestSequential(wrap(bytes.NewReader(body)), &want, tw.wantLog)
	gotErr := tw.got.ingestChunked(wrap(bytes.NewReader(body)), &got, chunk, tw.gotLog)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
		t.Fatalf("body %.200q (%d bytes), chunk %d:\nchunked    %+v, error %v\nsequential %+v, error %v",
			body, len(body), chunk, got, gotErr, want, wantErr)
	}
	if !reflect.DeepEqual(tw.gotLog.log, tw.wantLog.log) {
		t.Fatalf("body %.200q (%d bytes), chunk %d: pushes differ:\nchunked    %.400q\nsequential %.400q",
			body, len(body), chunk, tw.gotLog.log, tw.wantLog.log)
	}
	tw.wantLog.log, tw.gotLog.log = tw.wantLog.log[:0], tw.gotLog.log[:0]
	if err := tw.want.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tw.got.ing.Flush(); err != nil {
		t.Fatal(err)
	}
}

// finish drains both servers and fails unless they emitted the same
// action bytes.
func (tw *ingestTwin) finish(t *testing.T) {
	t.Helper()
	tw.want.Close()
	tw.got.Close()
	drain := func(sub *subscriber) []byte {
		var b []byte
		for frame := range sub.ch {
			b = append(b, frame...)
		}
		return b
	}
	if want, got := drain(tw.wantSub), drain(tw.gotSub); !bytes.Equal(got, want) {
		t.Fatalf("action streams differ: chunked %d bytes, sequential %d bytes", len(got), len(want))
	}
}

// diffLines renders n tick lines for offices "a" and "b" (2 streams
// each) with 17-digit samples, and an input line ahead of every 8th.
func diffLines(n int, src *rng.Source) []string {
	var lines []string
	for i := 0; len(lines) < n; i++ {
		office := []string{"a", "b"}[i%2]
		if i%8 == 0 {
			lines = append(lines, fmt.Sprintf(`{"office":%q,"input":%d}`, office, i/8%2))
		}
		lines = append(lines, fmt.Sprintf(`{"office":%q,"rssi":[%v,%v]}`, office,
			float64(float32(-60+src.Normal(0, 3))), float64(float32(-60+src.Normal(0, 3)))))
	}
	return lines[:n]
}

// paddedTick is a valid n-byte tick line for office "a", padded with
// spaces inside the object.
func paddedTick(n int) string {
	head, tail := `{"office":"a",`, `"rssi":[-60.25,-61.5]}`
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

func joinLines(ls []string, sep string) []byte { return []byte(strings.Join(ls, sep) + sep) }

// diffBodies is the differential corpus: a fault of each kind at many
// positions, blank and whitespace-only lines, CRLF, no trailing
// newline, empty bodies, and bodies of several 64 KiB chunks with and
// without a fault.
func diffBodies() [][]byte {
	lines := diffLines(40, rng.New(3))
	bodies := [][]byte{
		{}, []byte("\n"), []byte(" \n\t\n"),
		joinLines(lines, "\n"),
		joinLines(lines, "\r\n"),
		[]byte(strings.Join(lines, "\n")),
		joinLines([]string{"", lines[0], "   ", "\t \r", lines[1], "", ""}, "\n"),
	}
	faults := []string{
		`{"office":"a","rssi":[1,`,       // bad JSON
		`{"office":"zzz","rssi":[1,2]}`,  // unknown office
		`{"office":"a"}`,                 // neither rssi nor input
		`{"office":"a","rssi":[1,2,3]}`,  // wrong width
		`{"office":"zzz"}`,               // unknown office before neither
		`{"office":"b","rssi":[]}`,       // empty samples: wrong width
		`{"rssi":[1,2],"office":"a"} {}`, // trailing data, off the direct scan
	}
	for _, f := range faults {
		for p := 0; p < len(lines); p += 3 {
			ls := append([]string(nil), lines...)
			ls[p] = f
			bodies = append(bodies, joinLines(ls, "\n"))
		}
	}
	many := diffLines(4000, rng.New(4))
	bodies = append(bodies, joinLines(many, "\n"))
	for _, p := range []int{1, 3000} {
		ls := append([]string(nil), many...)
		ls[p] = faults[0]
		bodies = append(bodies, joinLines(ls, "\n"))
	}
	return bodies
}

// longLineBodies put a line of 8 MiB − 1 and of 8 MiB, the line
// limit, in the middle and at the unterminated end of a body.
func longLineBodies() [][]byte {
	lines := diffLines(2, rng.New(3))
	var bodies [][]byte
	for _, n := range []int{maxTickLineBytes - 1, maxTickLineBytes} {
		bodies = append(bodies,
			joinLines([]string{lines[0], paddedTick(n), lines[1]}, "\n"),
			[]byte(lines[0]+"\n"+paddedTick(n)))
	}
	return bodies
}

// errMidBody is the non-EOF error failingMidBody's readers fail with.
var errMidBody = errors.New("connection reset mid-body")

// failingMidBody returns a reader of the first half of r's bytes that
// then fails.
func failingMidBody(r io.Reader) io.Reader {
	b, _ := io.ReadAll(r)
	return io.MultiReader(bytes.NewReader(b[:len(b)/2]), iotest.ErrReader(errMidBody))
}

// eofWithData is iotest.DataErrReader without its 1 KiB reads: the
// read that returns the last bytes returns io.EOF with them.
type eofWithData struct{ r *bytes.Reader }

func (e eofWithData) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == nil && e.r.Len() == 0 {
		err = io.EOF
	}
	return n, err
}

type diffReader struct {
	name string
	wrap func(io.Reader) io.Reader
}

var (
	plainReader = diffReader{"plain", func(r io.Reader) io.Reader { return r }}
	eofReader   = diffReader{"eof-with-data", func(r io.Reader) io.Reader {
		b, _ := io.ReadAll(r)
		return eofWithData{bytes.NewReader(b)}
	}}
	failingReader = diffReader{"fail-mid-body", failingMidBody}
	diffReaders   = []diffReader{
		plainReader,
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
		eofReader,
		failingReader,
	}
)

var diffChunks = []int{1, 7, 64, 4096, ingestChunkBytes}

// TestIngestJSONLChunkedMatchesSequential holds the chunked pipeline
// to the line-by-line loop: for every reader, chunk size and body, the
// same error string, counts and pushes, and in the end the same action
// bytes.
func TestIngestJSONLChunkedMatchesSequential(t *testing.T) {
	testIngestDiff(t, diffBodies(), diffReaders, diffChunks)
}

// TestIngestJSONLLongLines holds the pipeline to the line-by-line
// loop on lines at the 8 MiB limit: one of 8 MiB − 1 passes, one of
// 8 MiB fails with bufio.ErrTooLong, unless it ends the body and the
// read that completes it also reports io.EOF. Readers with small reads
// are left out: bufio.Scanner rescans its whole buffer after every
// read, so they take quadratic time here. Chunk size 7 grows a buffer
// to the limit through sizes that are not powers of two.
func TestIngestJSONLLongLines(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 8 MiB lines")
	}
	testIngestDiff(t, longLineBodies(), []diffReader{plainReader, eofReader, failingReader},
		[]int{7, ingestChunkBytes})
}

// testIngestDiff feeds every body through a twin, one twin per reader
// and chunk size.
func testIngestDiff(t *testing.T, bodies [][]byte, readers []diffReader, chunks []int) {
	for _, rd := range readers {
		for _, chunk := range chunks {
			t.Run(fmt.Sprintf("%s/chunk=%d", rd.name, chunk), func(t *testing.T) {
				tw := newIngestTwin(t)
				for _, body := range bodies {
					tw.ingest(t, body, rd.wrap, chunk)
				}
				tw.finish(t)
			})
		}
	}
}

// FuzzIngestJSONL holds the chunked pipeline to the line-by-line loop
// on any body and chunk size, with the same checks as
// TestIngestJSONLChunkedMatchesSequential.
func FuzzIngestJSONL(f *testing.F) {
	for i, body := range diffBodies() {
		if len(body) > 4096 {
			continue // large seeds slow mutation down more than they add
		}
		f.Add(body, uint16(diffChunks[i%len(diffChunks)]-1))
	}
	// The chunk size is chunk+1, so 0 is 1 and 65535 is ingestChunkBytes.
	f.Fuzz(func(t *testing.T, body []byte, chunk uint16) {
		tw := newIngestTwin(t)
		tw.ingest(t, body, func(r io.Reader) io.Reader { return r }, int(chunk)+1)
		tw.finish(t)
	})
}

// TestIngestJSONLEarlyErrorNoLeak fails line 2 of a body of many
// chunks: the handler must return line 2's error with line 1 accepted,
// and no decode goroutine may outlive it. The same holds when the body
// fails to read after several chunks.
func TestIngestJSONLEarlyErrorNoLeak(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a", "b"), func(c *Config) {
		c.Queue = 64
		c.OnFull = stream.DropOldest
	})
	lines := diffLines(20000, rng.New(5))
	body := []byte(strings.Join(lines, "\n") + "\n")
	if len(body) < 4*ingestChunkBytes {
		t.Fatalf("body of %d bytes is too short to keep chunks in flight", len(body))
	}
	inputs := strings.Count(string(body), "input")
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		body io.Reader
		err  string
		res  ingestResult
	}{
		{"bad line 2", bytes.NewReader(append([]byte(lines[0]+"\n{\n"), body...)),
			"line 2: unexpected end of JSON input", ingestResult{AcceptedInputs: 1}},
		{"read error", io.MultiReader(bytes.NewReader(body), iotest.ErrReader(errMidBody)),
			fmt.Sprintf("line %d: %v", len(lines)+1, errMidBody),
			ingestResult{AcceptedTicks: len(lines) - inputs, AcceptedInputs: inputs}},
	} {
		var res ingestResult
		err := srv.ingestJSONL(tc.body, &res)
		if fmt.Sprint(err) != tc.err || res != tc.res {
			t.Fatalf("%s: error %v, result %+v; want %s, %+v", tc.name, err, res, tc.err, tc.res)
		}
		// Decode goroutines are waited for before the handler returns;
		// one may still be between its Done and its exit.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the request", tc.name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// endlessTicks is an endless body of 64-byte tick lines for office
// "a": 64 MiB of it ends exactly on a line boundary.
type endlessTicks struct{ off int }

func (e *endlessTicks) Read(p []byte) (int, error) {
	line := paddedTick(63) + "\n"
	for i := range p {
		p[i] = line[e.off%len(line)]
		e.off++
	}
	return len(p), nil
}

// TestTicksBodyLimit streams an endless JSONL body: the handler stops
// it at wire.MaxPayloadBytes with 413 and keeps the lines before the
// limit accepted.
func TestTicksBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"), func(c *Config) {
		c.Queue = 64
		c.OnFull = stream.DropOldest
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/ticks", &endlessTicks{})
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	res := decodeBody[ingestResult](t, rr)
	lines := wire.MaxPayloadBytes / 64
	want := fmt.Sprintf("line %d: http: request body too large", lines+1)
	if rr.Code != http.StatusRequestEntityTooLarge || res.AcceptedTicks != lines || res.Error != want {
		t.Fatalf("status %d result %+v; want 413, %d ticks, error %q", rr.Code, res, lines, want)
	}
}
