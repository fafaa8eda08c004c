package cluster

import (
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"fadewich/internal/serve"
)

// metricName matches a metric family name in the docs.
var metricName = regexp.MustCompile(`fadewich_[a-z0-9_]+`)

// metricFamily matches a family's TYPE line on a /metrics page.
var metricFamily = regexp.MustCompile(`(?m)^# TYPE (fadewich_[a-z0-9_]+) `)

// TestDocsNameLiveMetrics holds the operator docs to /metrics: every
// fadewich_* name in README.md and docs/DEPLOYMENT.md is a family on a
// live page of the daemon (with a segment log, retention and a forward,
// so every optional family shows) or of the coordinator, and every
// family those pages export is named in one of the two docs.
func TestDocsNameLiveMetrics(t *testing.T) {
	documented := map[string]bool{}
	for _, doc := range []string{"../../README.md", "../../docs/DEPLOYMENT.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range metricName.FindAllString(string(raw), -1) {
			documented[name] = true
		}
	}

	exported := map[string]bool{}
	for _, page := range []string{daemonMetrics(t), coordinatorMetrics(t)} {
		for _, m := range metricFamily.FindAllStringSubmatch(page, -1) {
			exported[m[1]] = true
		}
	}

	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !exported[name] {
			t.Errorf("the docs name %s, which no /metrics page exports", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(exported)) {
		if !documented[name] {
			t.Errorf("/metrics exports %s, which neither README.md nor docs/DEPLOYMENT.md names", name)
		}
	}
}

// daemonMetrics renders the /metrics page of an in-process daemon that
// runs a segment log under retention and forwards to a local drain.
func daemonMetrics(t *testing.T) string {
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
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	spec := []byte(`{"defaults": {"layout": "small", "sensors": 2}, "offices": [{"name": "a"}]}`)
	srv, err := serve.New(serve.Config{
		SpecSource: func() ([]byte, error) { return spec, nil },
		Workers:    1,
		SegmentDir: filepath.Join(t.TempDir(), "segments"),
		Retention:  time.Hour,
		Forward:    ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("daemon /metrics: status %d", rr.Code)
	}
	return rr.Body.String()
}

// coordinatorMetrics renders the coordinator's /metrics page.
func coordinatorMetrics(t *testing.T) string {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{SpecPath: writeSpec(t, t.TempDir(), 2, nil), Workers: []string{"w1"}})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	c.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("coordinator /metrics: status %d", rr.Code)
	}
	return rr.Body.String()
}
