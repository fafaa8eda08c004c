// End-to-end test of the fadewich-serve binary: it builds the real
// daemon (and fadewich-tail), drives a 16-office fleet through a full
// simulated day of training, takes it online, streams a second day of
// ticks while capturing /v1/actions, rolls the spec (add 2 offices,
// remove 1, retune one office's MD threshold) via SIGHUP, and finally
// drains with SIGTERM.
//
// The oracle is a synchronous in-process reference: an identical
// engine.Fleet + stream.Ingestor fed the exact same Push/PushInput
// sequence, with every reconcile op mirrored in the documented apply
// order. Because tick batching is flush-driven and office IDs assign
// deterministically, the daemon's action stream must be byte-identical
// to the reference's — both the live /v1/actions wire frames and the
// sealed segment log replayed through fadewich-tail.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/kma"
	"fadewich/internal/office"
	"fadewich/internal/rng"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// Sim sizing: a 30-minute day at 0.2 s per tick is 9000 ticks — small
// enough to feed over HTTP in seconds, busy enough that every office
// collects ~17 labelled training samples on day 0 and raises real
// alerts on day 1.
const (
	e2eSeed      = 21
	e2eDaySec    = 1800
	e2eSensors   = 4
	e2eMinTrain  = 3
	e2eQueue     = 4096
	initialFleet = 16
)

// API response shapes (mirrors of internal/serve's JSON contracts).
type e2eIngestResult struct {
	AcceptedTicks  int    `json:"accepted_ticks"`
	AcceptedInputs int    `json:"accepted_inputs"`
	Flushed        bool   `json:"flushed"`
	Error          string `json:"error"`
}

type e2eTrainResult struct {
	Trained []string `json:"trained"`
	Online  int      `json:"online"`
	Errors  []string `json:"errors"`
}

type e2eOfficeStatus struct {
	Name               string `json:"name"`
	ID                 int    `json:"id"`
	Phase              string `json:"phase"`
	ObservedGeneration uint64 `json:"observed_generation"`
}

type e2eFleetStatus struct {
	SpecGeneration     uint64            `json:"spec_generation"`
	GenerationLag      uint64            `json:"generation_lag"`
	DesiredOffices     int               `json:"desired_offices"`
	LiveOffices        int               `json:"live_offices"`
	ReconcileErrors    uint64            `json:"reconcile_errors"`
	LastReconcileError string            `json:"last_reconcile_error"`
	Offices            []e2eOfficeStatus `json:"offices"`
}

// reference is the synchronous oracle: the same fleet + ingestor
// construction as the daemon, collecting every dispatched batch.
type reference struct {
	fleet *engine.Fleet
	ing   *stream.Ingestor
	// nextID is the ID add gives the next office, counted as a
	// single-process daemon's reconciler counts them.
	nextID int

	mu      sync.Mutex
	batches [][]engine.OfficeAction
}

func newReference(t *testing.T, raw []byte) (*reference, []serve.ResolvedOffice) {
	t.Helper()
	spec, err := serve.ParseSpec(raw)
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve spec: %v", err)
	}
	perOffice := make(map[int]core.Config, len(resolved))
	for i, ro := range resolved {
		perOffice[i] = ro.Config
	}
	fleet, err := engine.NewFleet(engine.FleetConfig{
		Offices:   len(resolved),
		System:    resolved[0].Config,
		PerOffice: perOffice,
		Workers:   1,
	})
	if err != nil {
		t.Fatalf("reference fleet: %v", err)
	}
	ref := &reference{fleet: fleet, nextID: len(resolved)}
	ref.ing, err = stream.NewIngestor(fleet, stream.Config{
		Queue: e2eQueue,
		OnBatch: func(batch []engine.OfficeAction) {
			cp := make([]engine.OfficeAction, len(batch))
			copy(cp, batch)
			ref.mu.Lock()
			ref.batches = append(ref.batches, cp)
			ref.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("reference ingestor: %v", err)
	}
	return ref, resolved
}

// add joins an office under the next ID and returns it.
func (r *reference) add(cfg core.Config) (int, error) {
	id := r.nextID
	if err := r.ing.AddOffice(id, cfg); err != nil {
		return 0, err
	}
	r.nextID++
	return id, nil
}

func (r *reference) batchCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

// feeder walks one office through the shared dataset: its own tick
// cursor into a day trace plus per-workstation input cursors, so
// offices added mid-test simply start the dataset from the top.
type feeder struct {
	name string
	id   int
	day  int
	tick int
	cur  []int
}

// harness owns everything both sides consume: the dataset, the
// per-day keystroke/mouse input times and the live feeder set.
type harness struct {
	ds          *sim.Dataset
	streams     []int // dataset stream indices of the sensor subset
	inputsByDay [][][]float64
	feeders     []*feeder
}

func (h *harness) addFeeder(name string, id int) {
	h.feeders = append(h.feeders, &feeder{
		name: name,
		id:   id,
		cur:  make([]int, len(h.inputsByDay[0])),
	})
	sort.Slice(h.feeders, func(i, j int) bool { return h.feeders[i].id < h.feeders[j].id })
}

func (h *harness) removeFeeder(name string) {
	for i, f := range h.feeders {
		if f.name == name {
			h.feeders = append(h.feeders[:i], h.feeders[i+1:]...)
			return
		}
	}
}

// startDay moves every current feeder to the given day, tick 0.
func (h *harness) startDay(day int) {
	for _, f := range h.feeders {
		f.day = day
		f.tick = 0
		for ws := range f.cur {
			f.cur[ws] = 0
		}
	}
}

// emitOne appends one office-tick to the JSONL window — input lines
// first (the events due by this tick, exactly like the simulators'
// replay loops), then the RSSI line — and mirrors both into the
// reference ingestor. Returns the number of input lines emitted.
func (h *harness) emitOne(t *testing.T, f *feeder, buf *bytes.Buffer, ref *reference, rssi []float64) int {
	t.Helper()
	trace := h.ds.Days[f.day]
	inputs := h.inputsByDay[f.day]
	due := float64(f.tick+1) * trace.DT
	emitted := 0
	for ws := range inputs {
		for f.cur[ws] < len(inputs[ws]) && inputs[ws][f.cur[ws]] <= due {
			fmt.Fprintf(buf, "{\"office\":%q,\"input\":%d}\n", f.name, ws)
			if err := ref.ing.PushInput(f.id, ws); err != nil {
				t.Fatalf("reference PushInput(%s, %d): %v", f.name, ws, err)
			}
			f.cur[ws]++
			emitted++
		}
	}
	buf.WriteString("{\"office\":\"")
	buf.WriteString(f.name)
	buf.WriteString("\",\"rssi\":[")
	for j, k := range h.streams {
		if j > 0 {
			buf.WriteByte(',')
		}
		rssi[j] = float64(trace.Streams[k][f.tick])
		buf.Write(strconv.AppendFloat(nil, rssi[j], 'g', -1, 64))
	}
	buf.WriteString("]}\n")
	if err := ref.ing.Push(f.id, rssi); err != nil {
		t.Fatalf("reference Push(%s): %v", f.name, err)
	}
	f.tick++
	return emitted
}

// feedWindow advances every live feeder n ticks, POSTs the window to
// the daemon with ?flush=1 and flushes the reference at the same
// point, keeping both dispatch sequences identical.
func (h *harness) feedWindow(t *testing.T, base string, ref *reference, n int) {
	t.Helper()
	var buf bytes.Buffer
	rssi := make([]float64, len(h.streams))
	wantInputs := 0
	for step := 0; step < n; step++ {
		for _, f := range h.feeders {
			wantInputs += h.emitOne(t, f, &buf, ref, rssi)
		}
	}
	resp, err := http.Post(base+"/v1/ticks?flush=1", "application/json", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("POST /v1/ticks: %v", err)
	}
	var res e2eIngestResult
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("ticks response %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ticks = %d: %s", resp.StatusCode, res.Error)
	}
	if want := n * len(h.feeders); res.AcceptedTicks != want || res.AcceptedInputs != wantInputs || !res.Flushed {
		t.Fatalf("ingest result = %+v, want %d ticks, %d inputs, flushed", res, want, wantInputs)
	}
	if err := ref.ing.Flush(); err != nil {
		t.Fatalf("reference flush: %v", err)
	}
}

// buildBinary compiles a command of this module into dir.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// specFile marshals a fleet spec and writes it to path.
func specFile(t *testing.T, path string, spec serve.Spec) []byte {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write spec: %v", err)
	}
	return raw
}

func getStatus(t *testing.T, base string) e2eFleetStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/offices")
	if err != nil {
		t.Fatalf("GET /v1/offices: %v", err)
	}
	defer resp.Body.Close()
	var st e2eFleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /v1/offices: %v", err)
	}
	return st
}

func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and feeds two simulated days; skipped in -short")
	}

	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "fadewich-serve", "fadewich/cmd/fadewich-serve")
	tailBin := buildBinary(t, dir, "fadewich-tail", "fadewich/cmd/fadewich-tail")
	segDir := filepath.Join(dir, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// One shared dataset: every office is a copy of the same deployment,
	// so one generation pass feeds the whole fleet.
	simCfg := sim.Config{Days: 2, Seed: e2eSeed, Layout: office.Paper(), Workers: 1}
	simCfg.Agent.DaySeconds = e2eDaySec
	simCfg.Agent.MorningJitterSec = 120
	simCfg.Agent.DeparturesPerDay = 6
	simCfg.Agent.OutsideMeanSec = 150
	ds, err := sim.Generate(simCfg)
	if err != nil {
		t.Fatalf("sim.Generate: %v", err)
	}
	subset, err := ds.Layout.SensorSubset(e2eSensors)
	if err != nil {
		t.Fatalf("SensorSubset: %v", err)
	}
	src := rng.New(e2eSeed ^ 0xfade)
	h := &harness{ds: ds, streams: ds.StreamSubset(subset)}
	for day := range ds.Days {
		h.inputsByDay = append(h.inputsByDay, kma.GenerateInputs(
			ds.Days[day].InputSpans, ds.Days[day].Events, kma.InputModel{}, src.Split()))
	}

	// Spec v1: sixteen identical offices o00..o15.
	defaults := serve.OfficeSpec{
		Layout:             "paper",
		Sensors:            e2eSensors,
		DT:                 ds.Days[0].DT,
		MinTrainingSamples: e2eMinTrain,
	}
	var offices []serve.OfficeSpec
	for i := 0; i < initialFleet; i++ {
		offices = append(offices, serve.OfficeSpec{Name: fmt.Sprintf("o%02d", i)})
	}
	specPath := filepath.Join(dir, "fleet.json")
	rawV1 := specFile(t, specPath, serve.Spec{Defaults: defaults, Offices: offices})

	ref, resolved := newReference(t, rawV1)
	defer ref.ing.Close()
	live := make([]serve.LiveOffice, len(resolved))
	for i, ro := range resolved {
		live[i] = serve.LiveOffice{Name: ro.Name, ID: i, Config: ro.Config, GID: ro.GID}
		h.addFeeder(ro.Name, i)
	}

	// Start the daemon on an ephemeral port; its construction must match
	// the reference (flush-driven, one worker).
	cmd := exec.Command(serveBin,
		"-spec", specPath,
		"-listen", "127.0.0.1:0",
		"-segments", segDir,
		"-codec", "1",
		"-parallel", "1",
		"-queue", strconv.Itoa(e2eQueue),
	)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	started := false
	defer func() {
		if !started {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	var stderrBuf bytes.Buffer
	var stderrMu sync.Mutex
	addrCh := make(chan string, 1)
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			stderrMu.Lock()
			stderrBuf.WriteString(line)
			stderrBuf.WriteByte('\n')
			stderrMu.Unlock()
			if addr, ok := strings.CutPrefix(line, "fadewich-serve: listening on "); ok {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	daemonStderr := func() string {
		stderrMu.Lock()
		defer stderrMu.Unlock()
		return stderrBuf.String()
	}

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never reported its address; stderr:\n%s", daemonStderr())
	}
	t.Logf("daemon at %s", base)

	// Subscribe to the live action stream before the first tick: the
	// handler commits headers before streaming, so once Get returns the
	// subscription is active and no frame can be missed.
	streamResp, err := http.Get(base + "/v1/actions?codec=1")
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

	// Day 0: the whole fleet trains on a full day of ticks.
	h.startDay(0)
	day0 := ds.Days[0].Ticks
	const window = 600
	for fed := 0; fed < day0; fed += window {
		n := window
		if day0-fed < n {
			n = day0 - fed
		}
		h.feedWindow(t, base, ref, n)
	}

	// Take every office online, mirroring handleTrain's flush + asc-ID
	// FinishTrainingOffice sweep.
	resp, err := http.Post(base+"/v1/train", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/train: %v", err)
	}
	var tr e2eTrainResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode /v1/train: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(tr.Trained) != initialFleet || tr.Online != initialFleet {
		t.Fatalf("/v1/train = %d %+v, want all %d offices trained", resp.StatusCode, tr, initialFleet)
	}
	if err := ref.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, lo := range live {
		if ref.fleet.System(lo.ID).Phase() == core.PhaseTraining {
			if err := ref.fleet.FinishTrainingOffice(lo.ID); err != nil {
				t.Fatalf("reference train %s: %v", lo.Name, err)
			}
		}
	}

	// Day 1, first half: the online fleet raises real alerts.
	h.startDay(1)
	halfDay := ds.Days[1].Ticks / 2
	for fed := 0; fed < halfDay; fed += 500 {
		n := 500
		if halfDay-fed < n {
			n = halfDay - fed
		}
		h.feedWindow(t, base, ref, n)
	}
	preRolloutBatches := ref.batchCount()
	if preRolloutBatches == 0 {
		t.Fatal("no action batches before the rollout; the fleet never came online")
	}

	// Spec v2: remove o05, retune o03's MD threshold (a config rollout
	// that restarts it under a fresh ID) and add o16, o17.
	var officesV2 []serve.OfficeSpec
	for _, o := range offices {
		switch o.Name {
		case "o05":
		case "o03":
			o.MDTau = 9.5
			officesV2 = append(officesV2, o)
		default:
			officesV2 = append(officesV2, o)
		}
	}
	officesV2 = append(officesV2,
		serve.OfficeSpec{Name: "o16"}, serve.OfficeSpec{Name: "o17"})
	rawV2 := specFile(t, specPath, serve.Spec{Defaults: defaults, Offices: officesV2})

	// Mirror the reconcile in the documented apply order: Removes
	// ascending by live ID, then Updates in spec order (remove + fresh
	// add), then Adds in spec order.
	specV2, err := serve.ParseSpec(rawV2)
	if err != nil {
		t.Fatal(err)
	}
	desired, err := specV2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	diff := serve.ComputeDiff(desired, live)
	if len(diff.Removes) != 1 || len(diff.Updates) != 1 || len(diff.Adds) != 2 {
		t.Fatalf("diff = %d removes / %d updates / %d adds, want 1/1/2",
			len(diff.Removes), len(diff.Updates), len(diff.Adds))
	}
	for _, r := range diff.Removes {
		if _, err := ref.ing.RemoveOffice(r.ID); err != nil {
			t.Fatalf("reference remove %s: %v", r.Name, err)
		}
		h.removeFeeder(r.Name)
		for i, lo := range live {
			if lo.ID == r.ID {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	for _, u := range diff.Updates {
		if _, err := ref.ing.RemoveOffice(u.Old.ID); err != nil {
			t.Fatalf("reference update-remove %s: %v", u.Old.Name, err)
		}
		id, err := ref.add(u.New.Config)
		if err != nil {
			t.Fatalf("reference update-add %s: %v", u.New.Name, err)
		}
		h.removeFeeder(u.Old.Name)
		h.addFeeder(u.New.Name, id)
		for i, lo := range live {
			if lo.Name == u.Old.Name {
				live[i] = serve.LiveOffice{Name: u.New.Name, ID: id, Config: u.New.Config, GID: u.New.GID}
				break
			}
		}
	}
	for _, a := range diff.Adds {
		id, err := ref.add(a.Config)
		if err != nil {
			t.Fatalf("reference add %s: %v", a.Name, err)
		}
		h.addFeeder(a.Name, id)
		live = append(live, serve.LiveOffice{Name: a.Name, ID: id, Config: a.Config, GID: a.GID})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	// IDs are a monotonic counter: 0..15 existed, so the o03 rollout
	// lands on 16 and the two adds on 17 and 18.
	for _, want := range []struct {
		name string
		id   int
	}{{"o03", 16}, {"o16", 17}, {"o17", 18}} {
		found := false
		for _, lo := range live {
			if lo.Name == want.name && lo.ID == want.id {
				found = true
			}
		}
		if !found {
			t.Fatalf("reference did not assign %s id %d: %+v", want.name, want.id, live)
		}
	}

	// SIGHUP the daemon and wait for /v1/offices to converge on the
	// same membership, in the same ascending-ID order.
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	var st e2eFleetStatus
	for {
		st = getStatus(t, base)
		if st.SpecGeneration == 2 && st.GenerationLag == 0 && st.LiveOffices == len(live) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconcile never converged: %+v\nstderr:\n%s", st, daemonStderr())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.DesiredOffices != len(live) || st.LastReconcileError != "" {
		t.Fatalf("converged status = %+v", st)
	}
	if len(st.Offices) != len(live) {
		t.Fatalf("daemon reports %d offices, want %d", len(st.Offices), len(live))
	}
	for i, o := range st.Offices {
		if o.Name != live[i].Name || o.ID != live[i].ID {
			t.Fatalf("office row %d = %s/%d, want %s/%d (ordering broken)",
				i, o.Name, o.ID, live[i].Name, live[i].ID)
		}
		if o.ObservedGeneration != 2 {
			t.Fatalf("office %s observed generation %d, want 2", o.Name, o.ObservedGeneration)
		}
		wantPhase := "online"
		switch o.Name {
		case "o03", "o16", "o17":
			wantPhase = "training" // fresh Systems after the rollout
		}
		if o.Phase != wantPhase {
			t.Fatalf("office %s phase %q, want %q", o.Name, o.Phase, wantPhase)
		}
	}

	// Day 1, second half: survivors continue mid-day; the rollout's
	// fresh offices start the dataset from day 0 and train quietly.
	for _, f := range h.feeders {
		if f.id >= initialFleet {
			f.day = 0
			f.tick = 0
			for ws := range f.cur {
				f.cur[ws] = 0
			}
		}
	}
	for fed := halfDay; fed < ds.Days[1].Ticks; fed += 500 {
		n := 500
		if ds.Days[1].Ticks-fed < n {
			n = ds.Days[1].Ticks - fed
		}
		h.feedWindow(t, base, ref, n)
	}
	if ref.batchCount() == preRolloutBatches {
		t.Fatal("no action batches after the rollout; the surviving offices went quiet")
	}

	// Drain: SIGTERM dispatches queued ticks, flushes the sinks, seals
	// the active segment and completes the /v1/actions stream.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Read the stderr pipe to EOF before reaping: Wait closes the pipe,
	// and a concurrent Wait can discard the drain lines still in flight.
	select {
	case <-stderrDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", daemonStderr())
	}
	started = true
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\nstderr:\n%s", err, daemonStderr())
	}
	if !strings.Contains(daemonStderr(), "draining") {
		t.Fatalf("daemon never reported draining; stderr:\n%s", daemonStderr())
	}

	// The live stream must be byte-identical to the reference batches
	// framed with the same codec.
	got := <-streamCh
	ref.mu.Lock()
	batches := ref.batches
	ref.mu.Unlock()
	var wantFrames []byte
	var wantJSONL []byte
	actions := 0
	for _, b := range batches {
		wantFrames, err = wire.AppendFrame(wantFrames, wire.V1JSONL, b)
		if err != nil {
			t.Fatal(err)
		}
		wantJSONL = wire.AppendJSONL(wantJSONL, b)
		actions += len(b)
	}
	t.Logf("%d actions in %d batches, %d stream bytes", actions, len(batches), len(wantFrames))
	if actions == 0 {
		t.Fatal("reference produced no actions")
	}
	if !bytes.Equal(got, wantFrames) {
		t.Fatalf("/v1/actions stream diverged from the reference: got %d bytes, want %d",
			len(got), len(wantFrames))
	}

	// The sealed segment dir must replay to the same actions through
	// the real fadewich-tail binary, byte-exact in codec-v1 JSONL.
	tailCmd := exec.Command(tailBin, "-format", "jsonl", segDir)
	var tailOut, tailErr bytes.Buffer
	tailCmd.Stdout = &tailOut
	tailCmd.Stderr = &tailErr
	if err := tailCmd.Run(); err != nil {
		t.Fatalf("fadewich-tail: %v\n%s", err, tailErr.String())
	}
	if !bytes.Equal(tailOut.Bytes(), wantJSONL) {
		t.Fatalf("segment replay diverged from the reference: got %d bytes, want %d",
			tailOut.Len(), len(wantJSONL))
	}
}
