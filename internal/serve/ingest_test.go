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
//
// A flush twin stands for POST /v1/ticks?flush=1: got's pipeline calls
// Advance, which runs a body larger than the decode window through the
// fleet while it is decoded, and want's loop calls nothing. Its queues
// are large enough that neither drops a tick, so the action bytes must
// still match.
type ingestTwin struct {
	want, got       *Server
	wantLog, gotLog *pushRecorder
	wantSub, gotSub *subscriber
	flush           bool
	advances        int // Advance calls got's pipeline made
}

func newIngestTwin(t *testing.T, flush bool) *ingestTwin {
	t.Helper()
	queue := 64
	if flush {
		queue = 1 << 16
	}
	mk := func() (*Server, *pushRecorder, *subscriber) {
		srv, _ := newTestServer(t, specJSON("a", "b"), func(c *Config) {
			c.Queue = queue
			c.OnFull = stream.DropOldest
		})
		goOnline(t, srv, "b")
		sub, err := srv.bcast.Subscribe(false, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		return srv, &pushRecorder{ing: srv.ing}, sub
	}
	tw := &ingestTwin{flush: flush}
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
	var advance func() error
	if tw.flush {
		advance = func() error {
			tw.advances++
			return tw.got.ing.Advance()
		}
	}
	wantErr := tw.want.ingestSequential(wrap(bytes.NewReader(body)), &want, tw.wantLog)
	gotErr := tw.got.ingestChunked(wrap(bytes.NewReader(body)), &got, chunk, tw.gotLog, advance)
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
	want, got := drain(tw.wantSub), drain(tw.gotSub)
	if !bytes.Equal(got, want) {
		t.Fatalf("action streams differ: chunked %d bytes, sequential %d bytes", len(got), len(want))
	}
	if tw.flush && (tw.advances == 0 || len(want) == 0) {
		t.Fatalf("%d Advance calls, %d action bytes: the flush check is vacuous", tw.advances, len(want))
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

// holdLine pads a JSONL record with spaces before its closing brace to
// n bytes and a newline.
func holdLine(rec string, n int) string {
	return rec[:len(rec)-1] + strings.Repeat(" ", n-len(rec)) + "}\n"
}

// holdBody is a flush=1 body of ten chunks of the given size, and at
// least 640 lines, all 64 bytes long: a chunk of 64 bytes or more
// holds whole lines and starts at a line number that is a multiple of
// 64. Every such line is an input, as is the line before it, so once
// the window is full an input comes right before and right after each
// Advance. Office "b" alternates still and moving stretches, so it
// acts.
func holdBody(chunk int) []byte {
	const lineBytes = 64
	n := max(640, 10*chunk/lineBytes)
	src := rng.New(uint64(chunk))
	var b strings.Builder
	for i := 0; i < n; i++ {
		office := []string{"a", "b"}[i%2]
		switch sigma := []float64{0.5, 0.5, 6}[i/300%3]; {
		case i%lineBytes == 0 || i%lineBytes == lineBytes-1:
			b.WriteString(holdLine(fmt.Sprintf(`{"office":%q,"input":%d}`, office, i/lineBytes%2), lineBytes-1))
		default:
			b.WriteString(holdLine(fmt.Sprintf(`{"office":%q,"rssi":[%.2f,%.2f]}`, office,
				-60+src.Normal(0, sigma), -60+src.Normal(0, sigma)), lineBytes-1))
		}
	}
	return []byte(b.String())
}

// TestIngestJSONLChunkedMatchesSequential holds the chunked pipeline
// to the line-by-line loop: for every reader, chunk size and body, the
// same error string, counts and pushes, and in the end the same action
// bytes. The flush=1 half calls Advance as the handler does, on the
// corpus and on holdBody, a body larger than the decode window; with
// GOMAXPROCS at 2 the window is 4 chunks on every machine.
func TestIngestJSONLChunkedMatchesSequential(t *testing.T) {
	testIngestDiff(t, diffBodies(), diffReaders, diffChunks, false)
	t.Run("flush=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		for _, chunk := range diffChunks {
			testIngestDiff(t, append([][]byte{holdBody(chunk)}, diffBodies()...), diffReaders, []int{chunk}, true)
		}
	})
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
		[]int{7, ingestChunkBytes}, false)
}

// testIngestDiff feeds every body through a twin, one twin per reader
// and chunk size.
func testIngestDiff(t *testing.T, bodies [][]byte, readers []diffReader, chunks []int, flush bool) {
	for _, rd := range readers {
		for _, chunk := range chunks {
			t.Run(fmt.Sprintf("%s/chunk=%d", rd.name, chunk), func(t *testing.T) {
				tw := newIngestTwin(t, flush)
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
		tw := newIngestTwin(t, false)
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
		err := srv.ingestJSONL(tc.body, &res, nil)
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

// TestLargeFlushStagesAChunk posts one training-shaped window, 500
// ticks for each of 128 offices with 12 streams (about 5 MB), with
// ?flush=1. The handler runs it through the fleet while it is decoded,
// so afterwards the queues hold at most ⅛ of what staging the whole
// body takes (128 × 500 × 12 samples of 8 B), and everything was
// dispatched as one emitted batch. The same body without flush=1 stays
// staged whole, which shows the bound is not met by accident. GOMAXPROCS
// 2 pins the decode window at 4 chunks.
func TestLargeFlushStagesAChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 64,000-line training window")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const offices, ticks, streams = 128, 500, 12
	names := make([]string, offices)
	for i := range names {
		names[i] = fmt.Sprintf("o%03d", i)
	}
	spec := strings.Replace(specJSON(names...), `"layout": "small", "sensors": 2`, `"layout": "paper", "sensors": 4`, 1)
	src := rng.New(11)
	var b strings.Builder
	for tk := 0; tk < ticks; tk++ {
		for _, n := range names {
			fmt.Fprintf(&b, `{"office":%q,"rssi":[`, n)
			for s := 0; s < streams; s++ {
				if s > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", int(-60+src.Normal(0, 2)))
			}
			b.WriteString("]}\n")
		}
	}
	body := b.String()
	const full = offices * ticks * streams * 8

	srv, _ := newTestServer(t, spec)
	rr := post(srv, "/v1/ticks?flush=1", body)
	res := decodeBody[ingestResult](t, rr)
	if rr.Code != http.StatusOK || res.AcceptedTicks != offices*ticks || !res.Flushed {
		t.Fatalf("flush=1 POST: status %d result %+v", rr.Code, res)
	}
	st := srv.ing.Stats()
	if tot := st.Totals(); tot.Dispatched != offices*ticks || tot.Depth != 0 || st.Batches != 1 {
		t.Fatalf("after the flush: %+v, %d batches; want %d dispatched in 1 batch", tot, st.Batches, offices*ticks)
	}
	if st.BufferBytes > full/8 {
		t.Fatalf("queues hold %d B after a flush=1 POST, want at most %d (⅛ of %d)", st.BufferBytes, full/8, full)
	}

	staged, _ := newTestServer(t, spec)
	if rr := post(staged, "/v1/ticks", body); rr.Code != http.StatusOK {
		t.Fatalf("POST without flush: status %d: %s", rr.Code, rr.Body.String())
	}
	if got := staged.ing.Stats().BufferBytes; got < full {
		t.Fatalf("the body staged whole holds %d B, want at least %d", got, full)
	}
	t.Logf("queues hold %d B after flush=1, %d B with the body staged", st.BufferBytes, staged.ing.Stats().BufferBytes)
}
