package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fadewich/internal/re"
	"fadewich/internal/rng"
	"fadewich/internal/stream"
	"fadewich/internal/svm"
	"fadewich/internal/wire"
)

var errSentinel = errors.New("spec file went missing")

// specJSON builds a minimal valid fleet spec: each named office a
// 2-sensor small-layout tenant (2 RSSI streams, 2 workstations).
func specJSON(names ...string) string {
	offices := make([]string, len(names))
	for i, n := range names {
		offices[i] = fmt.Sprintf(`{"name": %q}`, n)
	}
	return fmt.Sprintf(`{"defaults": {"layout": "small", "sensors": 2}, "offices": [%s]}`,
		strings.Join(offices, ", "))
}

// fileSource reads the spec file at path, the way the daemon's
// single-process mode does.
func fileSource(path string) func() ([]byte, error) {
	return func() ([]byte, error) { return os.ReadFile(path) }
}

// newTestServer stands up a Server over a temp spec file. Its 4096-tick
// queues keep dispatch flush-driven, the deterministic mode the handler
// tests rely on.
func newTestServer(t testing.TB, spec string, mut ...func(*Config)) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{SpecSource: fileSource(path), Queue: 4096, Workers: 2}
	for _, m := range mut {
		m(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, path
}

// post runs one request through the server's mux.
func post(srv *Server, target, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rr
}

func get(srv *Server, target string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr
}

func decodeBody[T any](t *testing.T, rr *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("response %q does not decode: %v", rr.Body.String(), err)
	}
	return v
}

// rssiLines renders n tick lines for one office with the given noise
// level — the same quiet/noisy recipe the core tests drive alerts
// with (σ 0.5 is a still room, σ 6 is movement).
func rssiLines(office string, n int, sigma float64, src *rng.Source) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"office":%q,"rssi":[%g,%g]}`+"\n",
			office, -60+src.Normal(0, sigma), -60+src.Normal(0, sigma))
	}
	return b.String()
}

// goOnline installs an externally trained classifier on the named
// office, skipping the training phase: the movement-vs-still clusters
// are synthetic, so high-variance (movement) signatures classify as
// workstation 0.
func goOnline(t *testing.T, srv *Server, name string) int {
	t.Helper()
	id, ok := srv.rec.IDOf(name)
	if !ok {
		t.Fatalf("office %q not live", name)
	}
	sys := srv.fleet.System(id)
	streams := 2
	src := rng.New(31)
	var samples []re.Sample
	for i := 0; i < 10; i++ {
		f := make([]float64, streams*re.FeaturesPerStream)
		g := make([]float64, streams*re.FeaturesPerStream)
		for s := 0; s < streams; s++ {
			f[s*re.FeaturesPerStream] = 30 + src.Normal(0, 2)
			f[s*re.FeaturesPerStream+1] = 2 + src.Normal(0, 0.1)
			g[s*re.FeaturesPerStream] = 0.2 + src.Normal(0, 0.05)
			g[s*re.FeaturesPerStream+1] = 0.5 + src.Normal(0, 0.1)
		}
		samples = append(samples,
			re.Sample{Features: f, Label: 0},
			re.Sample{Features: g, Label: 1})
	}
	clf, err := re.Train(samples, svm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys.AdoptClassifier(clf)
	return id
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("server built without a spec source")
	}
	if _, err := New(Config{SpecSource: fileSource(filepath.Join(t.TempDir(), "nope.json"))}); err == nil {
		t.Fatal("server built from a missing spec file")
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	os.WriteFile(path, []byte(`{"offices": []}`), 0o644)
	if _, err := New(Config{SpecSource: fileSource(path)}); err == nil {
		t.Fatal("server built from an empty fleet")
	}
}

func TestTicksJSONL(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a", "b"))
	src := rng.New(1)
	body := rssiLines("a", 3, 0.5, src) + `{"office":"b","input":1}` + "\n"
	rr := post(srv, "/v1/ticks?flush=1", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	res := decodeBody[ingestResult](t, rr)
	if res.AcceptedTicks != 3 || res.AcceptedInputs != 1 || !res.Flushed || res.Error != "" {
		t.Fatalf("result %+v", res)
	}
	tot := srv.ing.Stats().Totals()
	if tot.Pushed != 3 || tot.Dispatched != 3 || tot.Depth != 0 {
		t.Fatalf("post-flush totals %+v", tot)
	}

	st := decodeBody[fleetStatus](t, get(srv, "/v1/offices"))
	if st.SpecGeneration != 1 || st.LiveOffices != 2 || st.DesiredOffices != 2 {
		t.Fatalf("fleet status %+v", st)
	}
	if len(st.Offices) != 2 || st.Offices[0].Name != "a" || st.Offices[1].Name != "b" {
		t.Fatalf("office rows %+v", st.Offices)
	}
	if st.Offices[0].Phase != "training" || st.Offices[0].PushedTicks != 3 {
		t.Fatalf("office a row %+v", st.Offices[0])
	}
	if st.Offices[0].Streams != 2 || st.Offices[0].Workstations != 2 {
		t.Fatalf("office a config row %+v", st.Offices[0])
	}
}

func TestTicksErrors(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))

	rr := post(srv, "/v1/ticks", `{"office":"zzz","rssi":[1,2]}`+"\n")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown office: status %d", rr.Code)
	}
	res := decodeBody[ingestResult](t, rr)
	if !strings.Contains(res.Error, `unknown office "zzz"`) || !strings.Contains(res.Error, "line 1") {
		t.Fatalf("error %q", res.Error)
	}

	// A failing line keeps everything before it accepted.
	body := `{"office":"a","rssi":[1,2]}` + "\n" + `{"office":"a"}` + "\n"
	rr = post(srv, "/v1/ticks", body)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty record: status %d", rr.Code)
	}
	res = decodeBody[ingestResult](t, rr)
	if res.AcceptedTicks != 1 || !strings.Contains(res.Error, "line 2") {
		t.Fatalf("partial accept %+v", res)
	}

	// A wrong-width tick is refused before it is queued; lines before it
	// stay accepted and the daemon keeps dispatching.
	body = `{"office":"a","rssi":[1,2]}` + "\n" + `{"office":"a","rssi":[1,2,3]}` + "\n"
	rr = post(srv, "/v1/ticks?flush=1", body)
	res = decodeBody[ingestResult](t, rr)
	if rr.Code != http.StatusBadRequest || res.AcceptedTicks != 1 ||
		!strings.Contains(res.Error, "line 2") || !strings.Contains(res.Error, "got 3 samples, want 2") {
		t.Fatalf("wrong-width JSONL: status %d result %+v", rr.Code, res)
	}
	rr = post(srv, "/v1/ticks?flush=1", `{"office":"a","rssi":[1,2]}`+"\n")
	if res := decodeBody[ingestResult](t, rr); rr.Code != http.StatusOK || !res.Flushed {
		t.Fatalf("flush after wrong-width rejections: status %d result %+v", rr.Code, res)
	}

	srv.Close()
	rr = post(srv, "/v1/ticks", `{"office":"a","rssi":[1,2]}`+"\n")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d", rr.Code)
	}
}

// tickParseCases pins the POST /v1/ticks line contract: for each
// single-line body, the response status, the ticks and inputs accepted
// and the exact error string. Office "a" has 2 streams.
var tickParseCases = []struct {
	name          string
	line          string
	status        int
	ticks, inputs int
	err           string
}{
	{"canonical rssi", `{"office":"a","rssi":[-60.52000045776367,-61]}`, 200, 1, 0, ""},
	{"canonical input", `{"office":"a","input":1}`, 200, 0, 1, ""},
	{"whitespace", " { \"office\" :\t\"a\" , \"rssi\" : [ -6.05E+1 , -0 ] } ", 200, 1, 0, ""},
	{"exponents", `{"office":"a","rssi":[1e-3,-2.5e+2]}`, 200, 1, 0, ""},
	{"integer zeros", `{"office":"a","rssi":[-0,0]}`, 200, 1, 0, ""},
	{"integer dBm", `{"office":"a","rssi":[-128,-67.0]}`, 200, 1, 0, ""},
	{"15-digit integers", `{"office":"a","rssi":[999999999999999,-123456789012345]}`, 200, 1, 0, ""},
	{"16-digit integers", `{"office":"a","rssi":[9007199254740993,1E2]}`, 200, 1, 0, ""},
	{"20-digit integer", `{"office":"a","rssi":[-99999999999999999999,1]}`, 200, 1, 0, ""},
	{"reordered keys", `{"rssi":[1,2],"office":"a"}`, 200, 1, 0, ""},
	{"case-variant key", `{"Office":"a","rssi":[1,2]}`, 200, 1, 0, ""},
	{"unknown field", `{"office":"a","rssi":[1,2],"extra":{"x":[true]}}`, 200, 1, 0, ""},
	{"escaped name", `{"office":"\u0061","rssi":[1,2]}`, 200, 1, 0, ""},
	{"null sample", `{"office":"a","rssi":[1,null]}`, 200, 1, 0, ""},
	{"rssi and input", `{"office":"a","rssi":[1,2],"input":0}`, 200, 0, 1, ""},
	{"duplicate office", `{"office":"zzz","office":"a","rssi":[1,2]}`, 200, 1, 0, ""},
	{"duplicate office, unknown last", `{"office":"a","office":"zzz","rssi":[1,2]}`, 400, 0, 0,
		`line 1: unknown office "zzz"`},
	{"unknown office", `{"office":"zzz","rssi":[1,2]}`, 400, 0, 0, `line 1: unknown office "zzz"`},
	{"non-ASCII name", `{"office":"é","rssi":[1,2]}`, 400, 0, 0, `line 1: unknown office "é"`},
	{"control byte in name", "{\"office\":\"a\x01\",\"rssi\":[1,2]}", 400, 0, 0,
		`line 1: invalid character '\x01' in string literal`},
	{"empty rssi", `{"office":"a","rssi":[]}`, 400, 0, 0,
		"line 1: stream: tick width does not match the office's stream count (office 0: got 0 samples, want 2)"},
	{"null rssi", `{"office":"a","rssi":null}`, 400, 0, 0, "line 1: neither rssi nor input"},
	{"missing rssi", `{"office":"a"}`, 400, 0, 0, "line 1: neither rssi nor input"},
	{"fractional input", `{"office":"a","input":1.5}`, 400, 0, 0,
		"line 1: json: cannot unmarshal number 1.5 into Go struct field tickLine.input of type int"},
	{"input overflow", `{"office":"a","input":99999999999999999999}`, 400, 0, 0,
		"line 1: json: cannot unmarshal number 99999999999999999999 into Go struct field tickLine.input of type int"},
	{"sample out of range", `{"office":"a","rssi":[1e400,2]}`, 400, 0, 0,
		"line 1: json: cannot unmarshal number 1e400 into Go struct field tickLine.rssi of type float64"},
	{"leading zero", `{"office":"a","rssi":[01,2]}`, 400, 0, 0,
		"line 1: invalid character '1' after array element"},
	{"bare minus", `{"office":"a","rssi":[-,2]}`, 400, 0, 0,
		"line 1: invalid character ',' in numeric literal"},
	{"trailing comma", `{"office":"a","rssi":[1,2],}`, 400, 0, 0,
		"line 1: invalid character '}' looking for beginning of object key string"},
	{"trailing data", `{"office":"a","rssi":[1,2]} x`, 400, 0, 0,
		"line 1: invalid character 'x' after top-level value"},
}

func TestTicksParseContract(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))
	for _, tc := range tickParseCases {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(srv, "/v1/ticks", tc.line+"\n")
			res := decodeBody[ingestResult](t, rr)
			if rr.Code != tc.status || res.AcceptedTicks != tc.ticks ||
				res.AcceptedInputs != tc.inputs || res.Error != tc.err {
				t.Fatalf("%s\ngot  status %d ticks %d inputs %d error %q\nwant status %d ticks %d inputs %d error %q",
					tc.line, rr.Code, res.AcceptedTicks, res.AcceptedInputs, res.Error,
					tc.status, tc.ticks, tc.inputs, tc.err)
			}
		})
	}
}

// TestActionsStream subscribes over real HTTP, drives an online office
// through an alert, and requires the subscriber to have received every
// action the fleet produced: the early header flush commits the
// subscription before any subsequent batch dispatches.
func TestActionsStream(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))
	id := goOnline(t, srv, "a")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/actions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	// Headers received ⇒ subscription live. Collect frames until the
	// server drains us at Close.
	type result struct {
		actions []int // emitting office per action
		err     error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		dec := wire.NewDecoder(resp.Body)
		for {
			acts, err := dec.Decode()
			if err != nil {
				if err != io.EOF {
					res.err = err
				}
				done <- res
				return
			}
			for _, a := range acts {
				res.actions = append(res.actions, a.Office)
			}
		}
	}()

	src := rng.New(7)
	steps := []string{
		rssiLines("a", 400, 0.5, src),     // movement-profile warm-up
		`{"office":"a","input":0}` + "\n", // login at workstation 0
		rssiLines("a", 50, 0.5, src),      // idle past t∆
		rssiLines("a", 120, 6, src),       // sustained movement → alert path
	}
	for i, body := range steps {
		if rr := post(srv, "/v1/ticks?flush=1", body); rr.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	produced := srv.ing.Stats().Actions
	if produced == 0 {
		t.Fatal("the online office produced no actions — the alert recipe regressed")
	}
	srv.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("action stream broke: %v", res.err)
	}
	if uint64(len(res.actions)) != produced {
		t.Fatalf("subscriber saw %d actions, fleet produced %d", len(res.actions), produced)
	}
	for _, office := range res.actions {
		if office != id {
			t.Fatalf("action attributed to office %d, want %d", office, id)
		}
	}
}

// TestActionsRejectsUnknownCodec: codec 1 is the only codec, so the
// retired binary codec 2 is a 400 like any other value.
func TestActionsRejectsUnknownCodec(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))
	for _, q := range []string{"2", "9"} {
		if rr := get(srv, "/v1/actions?codec="+q); rr.Code != http.StatusBadRequest {
			t.Fatalf("codec=%s status %d", q, rr.Code)
		}
	}
}

func TestTrainEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a", "b"))
	goOnline(t, srv, "a")

	rr := post(srv, "/v1/train", "")
	if rr.Code != http.StatusConflict {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	res := decodeBody[trainResult](t, rr)
	if res.Online != 1 || len(res.Trained) != 0 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0], `"b"`) {
		t.Fatalf("errors %v", res.Errors)
	}

	srv.Close()
	if rr := post(srv, "/v1/train", ""); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d", rr.Code)
	}
}

func TestReloadEndpoint(t *testing.T) {
	srv, path := newTestServer(t, specJSON("a", "b"))

	os.WriteFile(path, []byte(specJSON("a", "b", "c")), 0o644)
	rr := post(srv, "/v1/reload", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	res := decodeBody[reloadResult](t, rr)
	if res.SpecGeneration != 2 || res.LiveOffices != 3 || res.Error != "" {
		t.Fatalf("result %+v", res)
	}

	// An invalid revision reports the failure and keeps the fleet.
	os.WriteFile(path, []byte(`{broken`), 0o644)
	rr = post(srv, "/v1/reload", "")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d", rr.Code)
	}
	res = decodeBody[reloadResult](t, rr)
	if res.SpecGeneration != 3 || res.LiveOffices != 3 || res.Error == "" {
		t.Fatalf("invalid-spec result %+v", res)
	}

	// So does an unreadable spec file.
	os.Remove(path)
	rr = post(srv, "/v1/reload", "")
	res = decodeBody[reloadResult](t, rr)
	if rr.Code != http.StatusBadRequest || !strings.Contains(res.Error, "read spec") {
		t.Fatalf("missing file: status %d result %+v", rr.Code, res)
	}
}

// TestReloadAfterClose: once Close has begun, POST /v1/reload is a
// drain, not a bad request: 503, as /v1/ticks and /v1/train answer.
func TestReloadAfterClose(t *testing.T) {
	srv, _ := newTestServer(t, specJSON("a"))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	rr := post(srv, "/v1/reload", "")
	if res := decodeBody[reloadResult](t, rr); rr.Code != http.StatusServiceUnavailable || res.Error != errShuttingDown.Error() {
		t.Fatalf("reload after close: status %d result %+v, want 503 %q", rr.Code, res, errShuttingDown)
	}
}

// taggedWorker configures a test server as cluster worker source 1,
// forwarding to a discarding listener.
func taggedWorker(t *testing.T) func(*Config) {
	forward := discardListener(t)
	return func(c *Config) {
		c.Forward = forward
		c.ForwardSource = 1
	}
}

// TestEmptySpecPolicy pins the empty-spec policy of resolveSpec: a
// zero-office spec is rejected by a single-process daemon (at startup
// and on reload — emptying its fleet is a spec accident), while a
// tagged worker whose shard is currently empty starts, reloads offices
// in, and empties out again without failing.
func TestEmptySpecPolicy(t *testing.T) {
	empty := `{"defaults": {"layout": "small", "sensors": 2}, "offices": []}`

	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(empty), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{SpecSource: fileSource(path), Workers: 1}); err == nil || !strings.Contains(err.Error(), "no offices") {
		t.Fatalf("empty spec on a single-process daemon: err = %v, want no-offices rejection", err)
	}

	srv, specPath := newTestServer(t, empty, taggedWorker(t))
	if n := len(decodeBody[fleetStatus](t, get(srv, "/v1/offices")).Offices); n != 0 {
		t.Fatalf("empty shard lists %d offices", n)
	}

	// Offices hash in: the reload populates the empty fleet.
	os.WriteFile(specPath, []byte(`{"defaults": {"layout": "small", "sensors": 2},
		"offices": [{"name": "a", "gid": 0}, {"name": "b", "gid": 1}]}`), 0o644)
	rr := post(srv, "/v1/reload", "")
	res := decodeBody[reloadResult](t, rr)
	if rr.Code != http.StatusOK || res.LiveOffices != 2 || res.Error != "" {
		t.Fatalf("reload into empty fleet: status %d result %+v", rr.Code, res)
	}

	// ...and out again: the shard may legitimately empty.
	os.WriteFile(specPath, []byte(empty), 0o644)
	rr = post(srv, "/v1/reload", "")
	res = decodeBody[reloadResult](t, rr)
	if rr.Code != http.StatusOK || res.LiveOffices != 0 || res.Error != "" {
		t.Fatalf("reload to empty shard: status %d result %+v", rr.Code, res)
	}

	// A single-process daemon reloading to empty keeps its fleet.
	single, singlePath := newTestServer(t, specJSON("a", "b"))
	os.WriteFile(singlePath, []byte(empty), 0o644)
	rr = post(single, "/v1/reload", "")
	res = decodeBody[reloadResult](t, rr)
	if rr.Code != http.StatusBadRequest || res.LiveOffices != 2 || !strings.Contains(res.Error, "no offices") {
		t.Fatalf("single-process reload to empty: status %d result %+v", rr.Code, res)
	}
}

// TestNewRejectsBadSpecBeforeSinks: a spec that fails validation stops
// New before any sink opens. No segment directory appears and the
// forward address is never dialled, so a worker that fails to start
// sends no final frame to the router.
func TestNewRejectsBadSpecBeforeSinks(t *testing.T) {
	for _, tc := range []struct {
		name, spec, want string
		tagged           bool
	}{
		{"tagged office without gid", specJSON("a"), `"a" has none`, true},
		{"empty single-process fleet", `{"offices": []}`, "no offices", false},
		{"garbage", `{broken`, "fleet spec", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			segDir := filepath.Join(t.TempDir(), "segments")
			cfg := Config{
				SpecSource: func() ([]byte, error) { return []byte(tc.spec), nil },
				SegmentDir: segDir,
				Forward:    ln.Addr().String(),
			}
			if tc.tagged {
				cfg.ForwardSource = 1
			}
			if srv, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				if srv != nil {
					srv.Close()
				}
				t.Fatalf("New: err = %v, want one containing %q", err, tc.want)
			}
			if _, err := os.Stat(segDir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("segment directory after a rejected spec: stat err = %v", err)
			}
			// A dial that New made would be waiting in the backlog.
			ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
			if conn, err := ln.Accept(); err == nil {
				conn.Close()
				t.Fatal("New dialled the forward address for a rejected spec")
			}
		})
	}
}

// TestTaggedReloadRequiresGIDs: a tagged worker applies the same gid
// rule on reload as at startup. A revision adding an office without a
// gid is refused with a 400 naming it, membership stays as it was, and
// the generation lag shows the refused revision. The forward stream
// stays healthy: later epoch flushes answer 200.
func TestTaggedReloadRequiresGIDs(t *testing.T) {
	spec := `{"defaults": {"layout": "small", "sensors": 2}, "offices": [{"name": "a", "gid": 7}]}`
	srv, path := newTestServer(t, spec, taggedWorker(t))
	goOnline(t, srv, "a")
	before := srv.rec.Live()

	os.WriteFile(path, []byte(`{"defaults": {"layout": "small", "sensors": 2},
		"offices": [{"name": "a", "gid": 7}, {"name": "b"}]}`), 0o644)
	rr := post(srv, "/v1/reload", "")
	res := decodeBody[reloadResult](t, rr)
	if rr.Code != http.StatusBadRequest || !strings.Contains(res.Error, `"b" has none`) ||
		res.SpecGeneration != 2 || res.LiveOffices != 1 {
		t.Fatalf("reload adding a gid-less office: status %d result %+v", rr.Code, res)
	}
	if got := srv.rec.Live(); !reflect.DeepEqual(got, before) {
		t.Fatalf("membership changed under a refused spec: %v -> %v", before, got)
	}
	st := decodeBody[fleetStatus](t, get(srv, "/v1/offices"))
	if st.GenerationLag != 1 || st.ReconcileErrors != 1 || !strings.Contains(st.LastReconcileError, `"b"`) {
		t.Fatalf("status after a refused spec: %+v", st)
	}

	// Had b joined with no gid, it would have no ID in the cluster's ID
	// space; its ticks are refused as an unknown office's.
	src := rng.New(7)
	alertRecipe := func(office string) string {
		return rssiLines(office, 400, 0.5, src) + fmt.Sprintf(`{"office":%q,"input":0}`, office) + "\n" +
			rssiLines(office, 50, 0.5, src) + rssiLines(office, 120, 6, src)
	}
	if rr := post(srv, "/v1/ticks", alertRecipe("b")); rr.Code != http.StatusBadRequest {
		t.Fatalf("ticks for the refused office: status %d", rr.Code)
	}

	for i, body := range []string{alertRecipe("a"), ""} {
		if rr := post(srv, fmt.Sprintf("/v1/ticks?flush=1&epoch=%d", i+1), body); rr.Code != http.StatusOK {
			t.Fatalf("epoch %d flush: status %d: %s", i+1, rr.Code, rr.Body.String())
		}
	}
	if srv.ing.Stats().Actions == 0 {
		t.Fatal("office a produced no actions; the forward check is vacuous")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestTaggedWorkerRunsOfficesUnderGIDs: a tagged worker runs every
// office under its gid, so /v1/offices reports id == gid, and a reload
// that swaps two live offices' gids applies in full, because every
// update's old half is removed before any new half is added.
func TestTaggedWorkerRunsOfficesUnderGIDs(t *testing.T) {
	spec := `{"defaults": {"layout": "small", "sensors": 2}, "offices": [{"name": "a", "gid": 7}, {"name": "b", "gid": 3}]}`
	srv, path := newTestServer(t, spec, taggedWorker(t))
	members := func() map[string]int {
		st := decodeBody[fleetStatus](t, get(srv, "/v1/offices"))
		got := map[string]int{}
		for _, o := range st.Offices {
			if o.GID == nil || o.ID != *o.GID {
				t.Fatalf("office %q runs under id %d, gid %v", o.Name, o.ID, o.GID)
			}
			got[o.Name] = o.ID
		}
		return got
	}
	if got := members(); !reflect.DeepEqual(got, map[string]int{"a": 7, "b": 3}) {
		t.Fatalf("live offices %v, want a:7 b:3", got)
	}
	os.WriteFile(path, []byte(`{"defaults": {"layout": "small", "sensors": 2},
		"offices": [{"name": "b", "gid": 7}, {"name": "a", "gid": 3}]}`), 0o644)
	if err := srv.Reload(); err != nil {
		t.Fatalf("reload swapping two gids: %v", err)
	}
	if got := members(); !reflect.DeepEqual(got, map[string]int{"a": 3, "b": 7}) {
		t.Fatalf("live offices %v after the swap, want a:3 b:7", got)
	}
}

// promLine matches one Prometheus text-exposition sample with at most
// one label (the per-office series).
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? (-?[0-9.e+-]+|NaN)$`)

// discardListener is a TCP drain standing in for the downstream
// tail/router tier; it returns the address to forward to.
func discardListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	return ln.Addr().String()
}

// TestWorkerRejectsUntaggedFlush: on a tagged-forwarding worker only
// an epoch flush emits, so a ?flush=1 without an epoch could not do
// what it asks. The stray flush is a 400, and its ticks stay queued
// for the next epoch flush.
func TestWorkerRejectsUntaggedFlush(t *testing.T) {
	forward := discardListener(t)
	spec := `{"defaults": {"layout": "small", "sensors": 2}, "offices": [{"name": "a", "gid": 7}]}`
	srv, _ := newTestServer(t, spec, func(c *Config) {
		c.Forward = forward
		c.ForwardSource = 1
	})
	goOnline(t, srv, "a")

	src := rng.New(7)
	body := rssiLines("a", 400, 0.5, src) + `{"office":"a","input":0}` + "\n" +
		rssiLines("a", 50, 0.5, src) + rssiLines("a", 120, 6, src)
	rr := post(srv, "/v1/ticks?flush=1", body)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("untagged flush: status %d, want 400: %s", rr.Code, rr.Body.String())
	}
	if res := decodeBody[ingestResult](t, rr); res.Error != errUntaggedFlush.Error() || res.AcceptedTicks != 570 {
		t.Fatalf("untagged flush: %+v", res)
	}
	if got := srv.ing.Stats().Batches; got != 0 {
		t.Fatalf("untagged flush dispatched %d batches", got)
	}

	if rr := post(srv, "/v1/ticks?flush=1&epoch=1", ""); rr.Code != http.StatusOK {
		t.Fatalf("epoch flush: status %d: %s", rr.Code, rr.Body.String())
	}
	if srv.ing.Stats().Actions == 0 {
		t.Fatal("the queued ticks produced no actions; the check is vacuous")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// captureListener accepts one TCP connection and returns, on the
// channel, everything it sent once it closed.
func captureListener(t *testing.T) (string, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	return ln.Addr().String(), got
}

// TestWorkerBlockDispatchHoldsForEpoch: on a tagged worker, a queue
// that fills under the Block policy dispatches without an epoch. That
// dispatch holds its actions for the next epoch flush rather than hand
// the tagged sink an untagged batch, which the sink would refuse and
// the ingestor keep as its error for good. A worker with 4-tick queues
// fed one epoch of 10 ticks per office must forward exactly one tagged
// frame, then the final one, byte for byte what a worker with large
// queues forwards.
func TestWorkerBlockDispatchHoldsForEpoch(t *testing.T) {
	// A 40 s tick makes the 300 s idle time-out fire within the epoch.
	spec := `{"defaults": {"layout": "small", "sensors": 2, "dt": 40}, "offices": [{"name": "a", "gid": 7}, {"name": "b", "gid": 3}]}`
	src := rng.New(9)
	body := `{"office":"a","input":0}` + "\n" + `{"office":"b","input":0}` + "\n"
	for i := 0; i < 10; i++ {
		body += rssiLines("a", 1, 0.5, src) + rssiLines("b", 1, 0.5, src)
	}
	forward := func(queue int) []byte {
		t.Helper()
		addr, got := captureListener(t)
		srv, _ := newTestServer(t, spec, func(c *Config) {
			c.Queue = queue
			c.OnFull = stream.Block
			c.Forward = addr
			c.ForwardSource = 1
		})
		goOnline(t, srv, "a")
		goOnline(t, srv, "b")
		if rr := post(srv, "/v1/ticks?flush=1&epoch=1", body); rr.Code != http.StatusOK {
			t.Fatalf("queue %d: epoch POST: status %d: %s", queue, rr.Code, rr.Body.String())
		}
		st := srv.ing.Stats()
		if st.Batches != 1 || st.Actions == 0 {
			t.Fatalf("queue %d: %d batches with %d actions, want 1 batch with actions", queue, st.Batches, st.Actions)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("queue %d: close: %v", queue, err)
		}
		select {
		case b := <-got:
			return b
		case <-time.After(10 * time.Second):
			t.Fatalf("queue %d: the forward connection did not close", queue)
			return nil
		}
	}
	small, large := forward(4), forward(4096)
	if !bytes.Equal(small, large) {
		t.Fatalf("4-tick queues forwarded %d bytes, 4096-tick queues %d; want the same bytes", len(small), len(large))
	}
	dec := wire.NewDecoder(bytes.NewReader(small))
	var tags []wire.Tag
	for {
		if _, err := dec.Decode(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		tag, ok := dec.Tag()
		if !ok {
			t.Fatal("untagged frame on the forward")
		}
		tags = append(tags, tag)
	}
	if len(tags) != 2 || tags[0] != (wire.Tag{Source: 1, Epoch: 1}) || !tags[1].Final {
		t.Fatalf("forwarded frames %+v, want epoch 1 then the final frame", tags)
	}
}

// TestWorkerTrainHoldsForEpoch: POST /v1/train flushes queued ticks
// into the fleet before training. On a tagged worker that flush holds
// its actions for the next epoch flush, which forwards them in its
// tagged frame; emitted untagged, they would break the forward for
// good.
func TestWorkerTrainHoldsForEpoch(t *testing.T) {
	spec := `{"defaults": {"layout": "small", "sensors": 2, "dt": 40}, "offices": [{"name": "a", "gid": 7}]}`
	addr, got := captureListener(t)
	srv, _ := newTestServer(t, spec, func(c *Config) {
		c.Forward = addr
		c.ForwardSource = 1
	})
	goOnline(t, srv, "a")
	if rr := post(srv, "/v1/ticks", `{"office":"a","input":0}`+"\n"+rssiLines("a", 20, 0.5, rng.New(1))); rr.Code != http.StatusOK {
		t.Fatalf("POST ticks: status %d: %s", rr.Code, rr.Body.String())
	}
	if rr := post(srv, "/v1/train", ""); rr.Code != http.StatusOK {
		t.Fatalf("train: status %d: %s", rr.Code, rr.Body.String())
	}
	if st := srv.ing.Stats(); st.Totals().Dispatched != 20 || st.Batches != 0 {
		t.Fatalf("after train: %+v, %d batches; want 20 ticks run, nothing emitted", st.Totals(), st.Batches)
	}
	if rr := post(srv, "/v1/ticks?flush=1&epoch=1", ""); rr.Code != http.StatusOK {
		t.Fatalf("epoch flush: status %d: %s", rr.Code, rr.Body.String())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var b []byte
	select {
	case b = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the forward connection did not close")
	}
	dec := wire.NewDecoder(bytes.NewReader(b))
	batch, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := dec.Tag(); tag != (wire.Tag{Source: 1, Epoch: 1}) || len(batch) == 0 {
		t.Fatalf("first forwarded frame %+v with %d actions, want epoch 1 with the held actions", tag, len(batch))
	}
}

// TestWorkerReloadHoldsDrainForEpoch: a reload that removes an office
// from a tagged worker drains the office's queued ticks into the fleet.
// That drain holds its actions for the next epoch flush, which forwards
// them in its tagged frame under the removed office's gid; emitted
// untagged, they would break the forward for good.
func TestWorkerReloadHoldsDrainForEpoch(t *testing.T) {
	// A 40 s tick makes the 300 s idle time-out fire within the ticks.
	spec := `{"defaults": {"layout": "small", "sensors": 2, "dt": 40}, "offices": [{"name": "a", "gid": 7}, {"name": "b", "gid": 3}]}`
	addr, got := captureListener(t)
	srv, path := newTestServer(t, spec, func(c *Config) {
		c.Forward = addr
		c.ForwardSource = 1
	})
	goOnline(t, srv, "a")
	goOnline(t, srv, "b")
	src := rng.New(9)
	body := `{"office":"a","input":0}` + "\n" + `{"office":"b","input":0}` + "\n"
	for i := 0; i < 10; i++ {
		body += rssiLines("a", 1, 0.5, src) + rssiLines("b", 1, 0.5, src)
	}
	if rr := post(srv, "/v1/ticks", body); rr.Code != http.StatusOK {
		t.Fatalf("POST ticks: status %d: %s", rr.Code, rr.Body.String())
	}
	os.WriteFile(path, []byte(`{"defaults": {"layout": "small", "sensors": 2, "dt": 40}, "offices": [{"name": "a", "gid": 7}]}`), 0o644)
	if rr := post(srv, "/v1/reload", ""); rr.Code != http.StatusOK {
		t.Fatalf("reload without b: status %d: %s", rr.Code, rr.Body.String())
	}
	if rr := post(srv, "/v1/ticks?flush=1&epoch=1", ""); rr.Code != http.StatusOK {
		t.Fatalf("epoch flush: status %d: %s", rr.Code, rr.Body.String())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var b []byte
	select {
	case b = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the forward connection did not close")
	}
	dec := wire.NewDecoder(bytes.NewReader(b))
	batch, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := dec.Tag(); tag != (wire.Tag{Source: 1, Epoch: 1}) {
		t.Fatalf("first forwarded frame %+v, want epoch 1", tag)
	}
	removed := 0
	for _, a := range batch {
		switch a.Office {
		case 3:
			removed++
		case 7:
		default:
			t.Fatalf("epoch 1 carries office %d, not a gid of the spec", a.Office)
		}
	}
	if removed == 0 {
		t.Fatalf("epoch 1 holds %d actions, none of them the removed office's (gid 3)", len(batch))
	}
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if tag, _ := dec.Tag(); !tag.Final {
		t.Fatalf("second forwarded frame %+v, want the final frame", tag)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the final frame: %v, want EOF", err)
	}
}

// TestWorkerCloseBetweenEpochsIsNamed: a tagged worker shut down with
// ticks posted after its last epoch flush runs them in its final drain,
// which holds like every dispatch without an epoch. Close then names
// the held actions with stream.ErrUnflushedEpoch rather than hand the
// tagged sink an untagged batch, and the forward still ends in its
// final frame.
func TestWorkerCloseBetweenEpochsIsNamed(t *testing.T) {
	// A 40 s tick makes the 300 s idle time-out fire within the ticks.
	spec := `{"defaults": {"layout": "small", "sensors": 2, "dt": 40}, "offices": [{"name": "a", "gid": 7}, {"name": "b", "gid": 3}]}`
	addr, got := captureListener(t)
	srv, _ := newTestServer(t, spec, func(c *Config) {
		c.Forward = addr
		c.ForwardSource = 1
	})
	goOnline(t, srv, "a")
	goOnline(t, srv, "b")
	src := rng.New(9)
	body := `{"office":"a","input":0}` + "\n" + `{"office":"b","input":0}` + "\n"
	for i := 0; i < 10; i++ {
		body += rssiLines("a", 1, 0.5, src) + rssiLines("b", 1, 0.5, src)
	}
	if rr := post(srv, "/v1/ticks", body); rr.Code != http.StatusOK {
		t.Fatalf("POST ticks: status %d: %s", rr.Code, rr.Body.String())
	}
	if err := srv.Close(); !errors.Is(err, stream.ErrUnflushedEpoch) {
		t.Fatalf("close: %v, want stream.ErrUnflushedEpoch", err)
	}
	if st := srv.ing.Stats(); st.Totals().Dispatched != 20 || st.Batches != 0 {
		t.Fatalf("after close: %+v, %d batches; want 20 ticks run, nothing emitted", st.Totals(), st.Batches)
	}
	var b []byte
	select {
	case b = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the forward connection did not close")
	}
	dec := wire.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if tag, _ := dec.Tag(); !tag.Final {
		t.Fatalf("forwarded frame %+v, want the final frame", tag)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the final frame: %v, want EOF", err)
	}
}

// TestMetricsEndpoint is the /metrics contract test: the page parses
// as Prometheus text exposition, and in a quiesced state (here: after
// a drained Close) every exported counter equals the corresponding
// Stats() number from the stream, segment and TCP layers.
func TestMetricsEndpoint(t *testing.T) {
	forward := discardListener(t)
	segDir := t.TempDir()
	srv, _ := newTestServer(t, specJSON("a", "b"), func(c *Config) {
		c.SegmentDir = segDir
		c.Forward = forward
	})
	goOnline(t, srv, "a")

	src := rng.New(7)
	for i, body := range []string{
		rssiLines("a", 400, 0.5, src),
		`{"office":"a","input":0}` + "\n",
		rssiLines("a", 50, 0.5, src),
		rssiLines("a", 120, 6, src),
		rssiLines("b", 10, 0.5, src), // a training-phase tenant rides along
	} {
		if rr := post(srv, "/v1/ticks?flush=1", body); rr.Code != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	// Drain: every batch is through every sink, the active segment is
	// sealed. The metric counters must now agree exactly.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	rr := get(srv, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}

	flat := make(map[string]float64)     // unlabelled samples
	labelled := make(map[string]float64) // name{office=...} samples
	declared := make(map[string]bool)    // names with a TYPE line
	for _, line := range strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q is not valid exposition text", line)
		}
		var v float64
		fmt.Sscanf(m[3], "%g", &v)
		if m[2] == "" {
			flat[m[1]] = v
		} else {
			labelled[m[1]+m[2]] = v
		}
		if !declared[m[1]] {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
	}

	st := srv.ing.Stats()
	tot := st.Totals()
	if tot.Pushed == 0 || st.Actions == 0 || st.BufferBytes == 0 {
		t.Fatalf("test produced no traffic: %+v", tot)
	}
	want := map[string]float64{
		"fadewich_ingest_pushed_ticks_total":     float64(tot.Pushed),
		"fadewich_ingest_dispatched_ticks_total": float64(tot.Dispatched),
		"fadewich_ingest_dropped_ticks_total":    float64(tot.Dropped),
		"fadewich_ingest_queue_depth":            float64(tot.Depth),
		"fadewich_ingest_buffer_bytes":           float64(st.BufferBytes),
		"fadewich_ingest_batches_total":          float64(st.Batches),
		"fadewich_ingest_actions_total":          float64(st.Actions),
		"fadewich_offices_desired":               2,
		"fadewich_offices_live":                  2,
		"fadewich_spec_generation":               1,
		"fadewich_spec_generation_lag":           0,
		"fadewich_reconciles_total":              0,
		"fadewich_reconcile_errors_total":        0,
		"fadewich_actions_subscribers":           0,
	}
	frames, actions, _ := srv.bcast.Stats()
	want["fadewich_actions_frames_total"] = float64(frames)
	want["fadewich_actions_broadcast_total"] = float64(actions)
	if actions != st.Actions {
		t.Fatalf("broadcaster carried %d actions, ingestor produced %d", actions, st.Actions)
	}

	sst := srv.Segment().Stats()
	var sealedFrames, sealedBytes float64
	for _, info := range srv.Segment().Sealed() {
		sealedFrames += float64(info.Frames)
		sealedBytes += float64(info.Bytes)
	}
	want["fadewich_segment_frames_total"] = float64(sst.Frames)
	want["fadewich_segment_bytes_total"] = float64(sst.Bytes)
	want["fadewich_segment_sealed_segments"] = float64(sst.Sealed)
	want["fadewich_segment_sealed_frames"] = sealedFrames
	want["fadewich_segment_sealed_bytes"] = sealedBytes
	if sst.Frames == 0 || uint64(sst.Frames) != frames {
		t.Fatalf("segment log holds %d frames, broadcaster saw %d", sst.Frames, frames)
	}

	fst := srv.Forwarder().Stats()
	want["fadewich_forward_frames_total"] = float64(fst.Frames)
	if uint64(fst.Frames) != frames {
		t.Fatalf("forward sink delivered %d frames, broadcaster saw %d", fst.Frames, frames)
	}

	for name, v := range want {
		got, ok := flat[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if got != v {
			t.Errorf("metric %s = %g, want %g", name, got, v)
		}
	}
	// Per-office series carry the spec names as labels.
	for _, name := range []string{"a", "b"} {
		id, _ := srv.rec.IDOf(name)
		var ost stream.OfficeStats
		for _, o := range st.Offices {
			if o.Office == id {
				ost = o
			}
		}
		key := fmt.Sprintf(`fadewich_office_pushed_ticks_total{office=%q}`, name)
		if got := labelled[key]; got != float64(ost.Pushed) {
			t.Errorf("%s = %g, want %d", key, got, ost.Pushed)
		}
	}
}

// officePushedLine matches the per-office pushed-ticks sample of a
// five-tick office and captures its escaped label value.
var officePushedLine = regexp.MustCompile(`(?m)^fadewich_office_pushed_ticks_total\{office="((?:[^"\\\n]|\\.)*)"\} 5$`)

// TestMetricsOfficeLabelEscaping feeds an office name with every kind
// of awkward character a fleet spec can carry (a quote, a backslash, a
// tab, a non-ASCII letter) through the per-office series. The text
// format escapes only backslash, quote and newline inside a label
// value, so undoing exactly those three escapes must give the name back.
func TestMetricsOfficeLabelEscaping(t *testing.T) {
	const name = "q\"b\\s\té"
	srv, _ := newTestServer(t, specJSON(name))
	if rr := post(srv, "/v1/ticks?flush=1", rssiLines(name, 5, 0.5, rng.New(3))); rr.Code != http.StatusOK {
		t.Fatalf("ticks: status %d: %s", rr.Code, rr.Body.String())
	}
	page := get(srv, "/metrics").Body.String()
	m := officePushedLine.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("no fadewich_office_pushed_ticks_total line for the office:\n%s", page)
	}
	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	if got := unescape.Replace(m[1]); got != name {
		t.Fatalf("label value %q unescapes to %q, want %q", m[1], got, name)
	}
}

// TestConcurrentTicksAndReload is the churn/race test: 8 concurrent
// tick POSTers drive the fleet by office name while the spec file is
// rewritten and reloaded in a loop. Run under -race -count=3 in CI.
// Afterwards membership must equal the final spec and the ingestor's
// accounting must balance exactly: every accepted tick is either
// dispatched or attributed to a drop — nothing leaks through
// membership churn (Stats.Retired folds removed offices' counters).
func TestConcurrentTicksAndReload(t *testing.T) {
	srv, path := newTestServer(t, specJSON("a", "b", "c", "d"), func(c *Config) {
		c.Queue = 8 // full Block queues dispatch concurrently with the POSTers
	})

	specA := specJSON("a", "b", "c", "d")
	// Variant B removes d, retunes c and adds e — every reload is a
	// remove+update+add churn step.
	specB := `{"defaults": {"layout": "small", "sensors": 2}, "offices": [` +
		`{"name": "a"}, {"name": "b"}, {"name": "c", "md_tau": 5}, {"name": "e"}]}`

	union := []string{"a", "b", "c", "d", "e"}
	var accepted atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			src := rng.New(uint64(100 + p))
			<-start
			for i := 0; i < 40; i++ {
				office := union[(p+i)%len(union)]
				rr := post(srv, "/v1/ticks", rssiLines(office, 4, 0.5, src))
				var res ingestResult
				if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
					t.Errorf("producer %d: response %q: %v", p, rr.Body.String(), err)
					return
				}
				accepted.Add(uint64(res.AcceptedTicks))
			}
		}(p)
	}

	close(start)
	for i := 0; i < 25; i++ {
		spec := specA
		if i%2 == 0 {
			spec = specB
		}
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if rr := post(srv, "/v1/reload", ""); rr.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
	wg.Wait()

	// Converge on the final membership and drain the queues.
	if err := os.WriteFile(path, []byte(specA), 0o644); err != nil {
		t.Fatal(err)
	}
	if rr := post(srv, "/v1/reload", ""); rr.Code != http.StatusOK {
		t.Fatalf("final reload: status %d: %s", rr.Code, rr.Body.String())
	}
	if err := srv.ing.Flush(); err != nil {
		t.Fatal(err)
	}

	rst, reports := srv.rec.Status()
	if rst.Errors != 0 {
		t.Fatalf("reconcile errors under churn: %+v", rst)
	}
	var liveNames []string
	seen := make(map[int]bool)
	for _, rep := range reports {
		liveNames = append(liveNames, rep.Name)
		if seen[rep.ID] {
			t.Fatalf("office ID %d assigned twice", rep.ID)
		}
		seen[rep.ID] = true
	}
	if want := []string{"a", "b", "c", "d"}; len(liveNames) != 4 {
		t.Fatalf("live = %v, want %v", liveNames, want)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, ok := srv.rec.IDOf(name); !ok {
			t.Fatalf("office %q dropped during churn (live: %v)", name, liveNames)
		}
	}

	tot := srv.ing.Stats().Totals()
	if tot.Pushed != accepted.Load() {
		t.Fatalf("pushed %d ticks, POSTers were told %d were accepted", tot.Pushed, accepted.Load())
	}
	if tot.Pushed != tot.Dispatched+tot.Dropped+uint64(tot.Depth) {
		t.Fatalf("accounting leak: pushed %d != dispatched %d + dropped %d + depth %d",
			tot.Pushed, tot.Dispatched, tot.Dropped, tot.Depth)
	}
	if tot.Depth != 0 {
		t.Fatalf("queues not drained after flush: %+v", tot)
	}
}
