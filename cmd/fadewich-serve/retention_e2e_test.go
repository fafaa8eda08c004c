package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/kma"
	"fadewich/internal/office"
	"fadewich/internal/rng"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/wire"
)

// scrapeMetrics reads the daemon's unlabelled /metrics samples.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// TestServeRetentionEndToEnd runs the real daemon with a 2 s TTL and
// one frame per segment, feeds it a training day and an online day,
// and checks that TTL retention bounds the segment directory while
// what it leaves stays a replayable, frame-aligned suffix of the
// action stream.
func TestServeRetentionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and feeds two simulated days; skipped in -short")
	}
	const (
		ttl = 2 * time.Second
		// Retention runs every min(TTL/2, 1m) = 1 s. Once the feed
		// stops nothing new is sealed, so within TTL + one pass every
		// sealed segment is gone; the bound leaves room for a slow
		// machine.
		retentionBound = 20 * time.Second
	)

	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "fadewich-serve", "fadewich/cmd/fadewich-serve")
	tailBin := buildBinary(t, dir, "fadewich-tail", "fadewich/cmd/fadewich-tail")
	segDir := filepath.Join(dir, "segments")

	simCfg := sim.Config{Days: 2, Seed: e2eSeed, Layout: office.Paper(), Workers: 1}
	simCfg.Agent.DaySeconds = 900
	simCfg.Agent.MorningJitterSec = 90
	simCfg.Agent.DeparturesPerDay = 4
	simCfg.Agent.OutsideMeanSec = 120
	ds, err := sim.Generate(simCfg)
	if err != nil {
		t.Fatalf("sim.Generate: %v", err)
	}
	subset, err := ds.Layout.SensorSubset(e2eSensors)
	if err != nil {
		t.Fatalf("SensorSubset: %v", err)
	}
	src := rng.New(e2eSeed ^ 0x7e7a)
	h := &harness{ds: ds, streams: ds.StreamSubset(subset)}
	for day := range ds.Days {
		h.inputsByDay = append(h.inputsByDay, kma.GenerateInputs(
			ds.Days[day].InputSpans, ds.Days[day].Events, kma.InputModel{}, src.Split()))
	}
	defaults := serve.OfficeSpec{
		Layout:             "paper",
		Sensors:            e2eSensors,
		DT:                 ds.Days[0].DT,
		MinTrainingSamples: e2eMinTrain,
	}
	var offices []serve.OfficeSpec
	for i := 0; i < 4; i++ {
		offices = append(offices, serve.OfficeSpec{Name: fmt.Sprintf("o%02d", i)})
	}
	specPath := filepath.Join(dir, "fleet.json")
	raw := specFile(t, specPath, serve.Spec{Defaults: defaults, Offices: offices})
	ref, resolved := newReference(t, raw)
	defer ref.ing.Close()
	for i, ro := range resolved {
		h.addFeeder(ro.Name, i)
	}

	// The removed options are usage errors, not silently ignored.
	for _, args := range [][]string{{"-codec", "2"}, {"-compact-after", "1m"}, {"-replicate", dir}, {"-maintain-every", "1s"}} {
		out, err := exec.Command(serveBin, append([]string{"-spec", specPath, "-listen", "127.0.0.1:0"}, args...)...).CombinedOutput()
		if err == nil {
			t.Fatalf("fadewich-serve %v started; want a usage error", args)
		}
		if args[0] == "-codec" && !strings.Contains(string(out), "unknown wire codec 2") {
			t.Fatalf("fadewich-serve -codec 2: %s", out)
		}
	}

	daemon := startProc(t, "fadewich-serve", "fadewich-serve: listening on ", serveBin,
		"-spec", specPath, "-listen", "127.0.0.1:0", "-parallel", "1",
		"-queue", strconv.Itoa(e2eQueue), "-segments", segDir,
		"-segment-max-bytes", "1", "-retention", ttl.String())
	base := "http://" + daemon.addr(t)

	streamResp, err := http.Get(base + "/v1/actions")
	if err != nil {
		t.Fatalf("GET /v1/actions: %v", err)
	}
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/actions = %d", streamResp.StatusCode)
	}
	streamCh := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(streamResp.Body)
		streamResp.Body.Close()
		streamCh <- b
	}()

	feedDay := func(day, window int) {
		h.startDay(day)
		ticks := ds.Days[day].Ticks
		for fed := 0; fed < ticks; fed += window {
			h.feedWindow(t, base, ref, min(window, ticks-fed))
		}
	}
	feedDay(0, 600)
	resp, err := http.Post(base+"/v1/train", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/train: %v", err)
	}
	var tr e2eTrainResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode /v1/train: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.Online != len(offices) {
		t.Fatalf("/v1/train = %d %+v, want all %d offices online", resp.StatusCode, tr, len(offices))
	}
	if err := ref.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range resolved {
		if ref.fleet.System(i).Phase() == core.PhaseTraining {
			if err := ref.fleet.FinishTrainingOffice(i); err != nil {
				t.Fatalf("reference train %d: %v", i, err)
			}
		}
	}
	feedDay(1, 300)

	// Every segment was sealed before the feed stopped, so after TTL and
	// one pass the manifest holds none of them.
	var m map[string]float64
	for deadline := time.Now().Add(retentionBound); ; time.Sleep(100 * time.Millisecond) {
		m = scrapeMetrics(t, base)
		sealed, ok := m["fadewich_segment_sealed_bytes"]
		if !ok {
			t.Fatal("/metrics has no fadewich_segment_sealed_bytes gauge")
		}
		if m["fadewich_segment_retained_segments_total"] > 0 && sealed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention did not empty the sealed set within %v: retained %v segments, %v sealed bytes left",
				retentionBound, m["fadewich_segment_retained_segments_total"], m["fadewich_segment_sealed_bytes"])
		}
	}
	if m["fadewich_segment_maintenance_errors_total"] != 0 {
		t.Fatalf("%v retention passes failed", m["fadewich_segment_maintenance_errors_total"])
	}
	daemon.term(t, 30*time.Second)

	got := <-streamCh
	var frames [][]byte
	for rest := got; len(rest) > 0; {
		n := wire.HeaderSize + int(binary.BigEndian.Uint32(rest[4:wire.HeaderSize])) + wire.TrailerSize
		frames = append(frames, rest[:n])
		rest = rest[n:]
	}
	retained := int(m["fadewich_segment_retained_segments_total"])
	t.Logf("%d frames streamed, %d segments retained away", len(frames), retained)
	if len(frames) < 3 || retained >= len(frames) {
		t.Fatalf("%d frames streamed, %d segments retained away; want several frames and a survivor", len(frames), retained)
	}

	// One frame per segment and nothing sealed in the last TTL: the
	// directory holds only the segment of the last frame.
	ents, err := filepath.Glob(filepath.Join(segDir, "*.fwl"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range ents {
		fi, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if last := frames[len(frames)-1]; len(ents) != 1 || onDisk != int64(len(last)) {
		t.Fatalf("segment directory holds %d files, %d bytes; want the last frame's segment only (%d bytes)", len(ents), onDisk, len(last))
	}

	// What retention left replays through fadewich-tail as the stream's
	// final frames: a frame-aligned suffix of /v1/actions.
	tailCmd := exec.Command(tailBin, "-format", "jsonl", segDir)
	var tailOut, tailErr bytes.Buffer
	tailCmd.Stdout, tailCmd.Stderr = &tailOut, &tailErr
	if err := tailCmd.Run(); err != nil {
		t.Fatalf("fadewich-tail: %v\n%s", err, tailErr.String())
	}
	var suffix []byte
	for k := len(frames) - 1; k >= 0 && len(suffix) < tailOut.Len(); k-- {
		acts, err := wire.NewDecoder(bytes.NewReader(frames[k])).Decode()
		if err != nil {
			t.Fatalf("stream frame %d: %v", k, err)
		}
		suffix = append(wire.AppendJSONL(nil, acts), suffix...)
	}
	if tailOut.Len() == 0 || !bytes.Equal(tailOut.Bytes(), suffix) {
		t.Fatalf("segment replay (%d bytes) is not a frame-aligned suffix of the action stream", tailOut.Len())
	}
}
