package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds every ingest or control request.
const requestTimeout = 30 * time.Second

// newIngestClient returns the generator's HTTP client: keep-alive, at
// most two connections per daemon (the cluster feeds two workers).
func newIngestClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
}

// ingestResult mirrors the POST /v1/ticks response.
type ingestResult struct {
	AcceptedTicks  int    `json:"accepted_ticks"`
	AcceptedInputs int    `json:"accepted_inputs"`
	Flushed        bool   `json:"flushed"`
	Error          string `json:"error"`
}

// postTicks sends one tick body with ?flush=1 (and &epoch=K when epoch
// is non-zero) and checks that the daemon accepted and dispatched all
// of it.
func postTicks(ctx context.Context, c *http.Client, base string, body []byte, epoch uint64, ticks, inputs int) error {
	url := base + "/v1/ticks?flush=1"
	if epoch > 0 {
		url += "&epoch=" + strconv.FormatUint(epoch, 10)
	}
	var res ingestResult
	status, err := doJSON(ctx, c, http.MethodPost, url, body, &res)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s = %d: %s", url, status, res.Error)
	}
	if res.AcceptedTicks != ticks || res.AcceptedInputs != inputs || !res.Flushed {
		return fmt.Errorf("POST %s accepted %d ticks, %d inputs (flushed %v), want %d, %d", url, res.AcceptedTicks, res.AcceptedInputs, res.Flushed, ticks, inputs)
	}
	return nil
}

// trainResult mirrors the POST /v1/train response.
type trainResult struct {
	Trained []string `json:"trained"`
	Online  int      `json:"online"`
	Errors  []string `json:"errors"`
}

// trainAll takes every office of the daemon online and checks that all
// of its want offices are.
func trainAll(ctx context.Context, c *http.Client, base string, want int) error {
	var res trainResult
	status, err := doJSON(ctx, c, http.MethodPost, base+"/v1/train", nil, &res)
	if err != nil {
		return err
	}
	if status != http.StatusOK || res.Online != want {
		return fmt.Errorf("POST %s/v1/train = %d: %d of %d offices online, errors %v", base, status, res.Online, want, res.Errors)
	}
	return nil
}

// doJSON performs one request and decodes a JSON response body.
func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read response: %w", method, url, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s = %d: decode %q: %w", method, url, resp.StatusCode, raw, err)
	}
	return resp.StatusCode, nil
}

// promSample is one scraped /metrics snapshot: sample name (with its
// label set, as written) → value.
type promSample map[string]float64

// scrape reads a daemon's Prometheus text exposition.
func scrape(ctx context.Context, c *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics = %d", base, resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET %s/metrics: line %q: %w", base, line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s/metrics: %w", base, err)
	}
	return out, nil
}

// delta sums after−before of one sample over the daemons scraped.
func delta(before, after []promSample, name string) float64 {
	var d float64
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}

// subscribe opens GET /v1/actions (codec 1) on its own connection and
// starts the tap reading it; the returned channel yields the read's
// outcome once the daemon completes the stream at drain. The handler
// commits its headers before streaming, so once this returns every
// batch dispatched from now on reaches the tap.
func subscribe(ctx context.Context, base string, t *tap) (<-chan error, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/actions?codec=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s/v1/actions: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s/v1/actions = %d", base, resp.StatusCode)
	}
	done := make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		done <- t.read(resp.Body)
	}()
	return done, nil
}

// awaitTap waits for a tap's stream to end after its daemon drained.
func awaitTap(done <-chan error) error {
	select {
	case err := <-done:
		return err
	case <-time.After(drainTimeout):
		return fmt.Errorf("action stream did not end within %v of the drain", drainTimeout)
	}
}
