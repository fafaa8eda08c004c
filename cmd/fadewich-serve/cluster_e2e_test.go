// Multi-node end-to-end test of the cluster wire layer: a coordinator
// shards a 48-office spec onto workers, each worker streams epoch-tagged
// frames to a fadewich-tail -route fan-in, and the router's merged
// output must be byte-identical to a single-process reference fleet of
// the full spec — including across a worker joining mid-run, which
// reshards a subset of offices onto the new node under fresh global IDs.
//
// The identity argument: gids assign 0..n−1 in spec order exactly like
// the reference fleet's IDs; a reshard mirrors the reference applying
// the same change as remove + fresh add (in spec order, so fresh ids ==
// fresh gids); and within an epoch the workers' office sets are
// disjoint, so the router's k-way merge of per-worker runs reconstructs
// the batch the reference ingestor dispatched for the same flush.
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
	"fadewich/internal/kma"
	"fadewich/internal/office"
	"fadewich/internal/rng"
	"fadewich/internal/segment"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/wire"
)

const clusterFleet = 48

// clusterAssignments mirrors cluster.Assignments' JSON (the test talks
// to the coordinator only over HTTP, like a real operator).
type clusterAssignments struct {
	Generation uint64 `json:"generation"`
	GIDsIssued int    `json:"gids_issued"`
	Workers    []struct {
		Name    string   `json:"name"`
		Source  uint8    `json:"source"`
		Offices []string `json:"offices"`
	} `json:"workers"`
	Offices []struct {
		Name   string `json:"name"`
		GID    int    `json:"gid"`
		Worker string `json:"worker"`
	} `json:"offices"`
}

// proc is a child process with its stderr scanned for the bound-address
// line and retained for failure reports.
type proc struct {
	cmd    *exec.Cmd
	name   string
	addrCh chan string
	stdout bytes.Buffer

	mu      sync.Mutex
	stderr  bytes.Buffer
	scanned chan struct{}
}

// startProc launches bin, capturing stdout and scanning stderr for
// addrPrefix. Killing on test cleanup is registered; a clean exit is
// awaited explicitly via wait.
func startProc(t *testing.T, name, addrPrefix, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:     exec.Command(bin, args...),
		name:    name,
		addrCh:  make(chan string, 1),
		scanned: make(chan struct{}),
	}
	p.cmd.Stdout = &p.stdout
	stderrPipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line)
			p.stderr.WriteByte('\n')
			p.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, addrPrefix); ok {
				select {
				case p.addrCh <- addr:
				default:
				}
			}
		}
	}()
	return p
}

func (p *proc) errOutput() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// addr waits for the process to report its bound address.
func (p *proc) addr(t *testing.T) string {
	t.Helper()
	select {
	case a := <-p.addrCh:
		return a
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never reported its address; stderr:\n%s", p.name, p.errOutput())
		return ""
	}
}

// wait expects the process to exit cleanly within the timeout. The
// stderr pipe is read to EOF before Wait reaps the child — Wait closes
// the pipe, and reaping concurrently with the scanner can discard the
// last lines.
func (p *proc) wait(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-p.scanned:
	case <-time.After(timeout):
		t.Fatalf("%s did not exit; stderr:\n%s", p.name, p.errOutput())
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s exit: %v\nstderr:\n%s", p.name, err, p.errOutput())
	}
}

// term SIGTERMs the process and waits for the drain to finish.
func (p *proc) term(t *testing.T, timeout time.Duration) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", p.name, err)
	}
	p.wait(t, timeout)
}

func getAssignments(t *testing.T, base string) clusterAssignments {
	t.Helper()
	resp, err := http.Get(base + "/v1/assignments")
	if err != nil {
		t.Fatalf("GET /v1/assignments: %v", err)
	}
	defer resp.Body.Close()
	var as clusterAssignments
	if err := json.NewDecoder(resp.Body).Decode(&as); err != nil {
		t.Fatalf("decode assignments: %v", err)
	}
	return as
}

// officeWorkerMap flattens an assignment snapshot to office → worker.
func officeWorkerMap(as clusterAssignments) map[string]string {
	m := make(map[string]string, len(as.Offices))
	for _, o := range as.Offices {
		m[o.Name] = o.Worker
	}
	return m
}

// feedEpoch advances every live feeder n ticks, partitions the window
// into per-worker JSONL bodies by the current assignment, POSTs each
// worker its share with ?flush=1&epoch=K — every worker, every epoch,
// empty bodies included, because the router's watermark needs one frame
// per source per epoch — and flushes the reference at the same point.
func feedEpoch(t *testing.T, h *harness, ref *reference, workerBase map[string]string,
	assign map[string]string, epoch uint64, n int) {
	t.Helper()
	bufs := make(map[string]*bytes.Buffer, len(workerBase))
	ticks := make(map[string]int, len(workerBase))
	inputs := make(map[string]int, len(workerBase))
	for w := range workerBase {
		bufs[w] = &bytes.Buffer{}
	}
	rssi := make([]float64, len(h.streams))
	for step := 0; step < n; step++ {
		for _, f := range h.feeders {
			w, ok := assign[f.name]
			if !ok {
				t.Fatalf("feeder %s has no worker assignment", f.name)
			}
			inputs[w] += h.emitOne(t, f, bufs[w], ref, rssi)
			ticks[w]++
		}
	}
	names := make([]string, 0, len(workerBase))
	for w := range workerBase {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		url := workerBase[w] + "/v1/ticks?flush=1&epoch=" + strconv.FormatUint(epoch, 10)
		resp, err := http.Post(url, "application/json", bytes.NewReader(bufs[w].Bytes()))
		if err != nil {
			t.Fatalf("POST ticks to %s: %v", w, err)
		}
		var res e2eIngestResult
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s ticks response %q: %v", w, body, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST ticks to %s = %d: %s", w, resp.StatusCode, res.Error)
		}
		if res.AcceptedTicks != ticks[w] || res.AcceptedInputs != inputs[w] || !res.Flushed {
			t.Fatalf("%s epoch %d ingest = %+v, want %d ticks, %d inputs, flushed",
				w, epoch, res, ticks[w], inputs[w])
		}
	}
	if err := ref.ing.Flush(); err != nil {
		t.Fatalf("reference flush: %v", err)
	}
}

func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and drives a three-node cluster; skipped in -short")
	}

	dir := t.TempDir()
	serveBin := buildBinary(t, dir, "fadewich-serve", "fadewich/cmd/fadewich-serve")
	tailBin := buildBinary(t, dir, "fadewich-tail", "fadewich/cmd/fadewich-tail")

	// A shorter day than the single-process e2e (the fleet is 3× wider):
	// 15 simulated minutes per day, two days.
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
	src := rng.New(e2eSeed ^ 0xc1d5)
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
	for i := 0; i < clusterFleet; i++ {
		offices = append(offices, serve.OfficeSpec{Name: fmt.Sprintf("o%02d", i)})
	}
	specPath := filepath.Join(dir, "fleet.json")
	rawV1 := specFile(t, specPath, serve.Spec{Defaults: defaults, Offices: offices})

	// The oracle: one single-process fleet of the full 48-office spec.
	ref, resolved := newReference(t, rawV1)
	defer ref.ing.Close()
	refID := make(map[string]int, len(resolved)) // office name → reference fleet ID (== gid)
	for i, ro := range resolved {
		refID[ro.Name] = i
		h.addFeeder(ro.Name, i)
	}

	// Topology: coordinator, router, two workers (w3 joins mid-run).
	coord := startProc(t, "coordinator", "fadewich-serve: listening on ", serveBin,
		"-mode", "coordinator", "-spec", specPath, "-workers", "w1,w2", "-listen", "127.0.0.1:0")
	coordBase := "http://" + coord.addr(t)

	router := startProc(t, "router", "fadewich-tail: routing on ", tailBin,
		"-route", "-listen", "127.0.0.1:0", "-expect", "3", "-format", "jsonl")
	routerAddr := router.addr(t)

	// Every worker compresses both its bytes-moved legs: the epoch-tagged
	// forward stream to the router and a local segment log. The router
	// inflates transparently, so the byte-identity assertion at the end
	// is unchanged — compression must be invisible to decoded output.
	startWorker := func(name string) *proc {
		return startProc(t, name, "fadewich-serve: listening on ", serveBin,
			"-mode", "worker", "-coordinator", coordBase, "-name", name,
			"-forward", routerAddr, "-listen", "127.0.0.1:0",
			"-parallel", "1", "-queue", strconv.Itoa(e2eQueue), "-codec", "1",
			"-compress", "-segments", filepath.Join(dir, "seg-"+name))
	}
	w1 := startWorker("w1")
	w2 := startWorker("w2")
	workerBase := map[string]string{
		"w1": "http://" + w1.addr(t),
		"w2": "http://" + w2.addr(t),
	}
	workerProc := map[string]*proc{"w1": w1, "w2": w2}

	// Generation 1: gids must be 0..47 in spec order — the identity
	// anchor with the reference fleet's IDs.
	asV1 := getAssignments(t, coordBase)
	if asV1.Generation != 1 || asV1.GIDsIssued != clusterFleet {
		t.Fatalf("initial assignments: generation %d, %d gids", asV1.Generation, asV1.GIDsIssued)
	}
	for i, o := range asV1.Offices {
		if o.GID != i {
			t.Fatalf("office %s gid %d, want %d", o.Name, o.GID, i)
		}
	}
	assign := officeWorkerMap(asV1)

	// Day 0: the whole fleet trains. Epochs number from 1 and keep
	// counting across days and the join.
	h.startDay(0)
	epoch := uint64(0)
	day0 := ds.Days[0].Ticks
	const window = 500
	for fed := 0; fed < day0; fed += window {
		n := window
		if day0-fed < n {
			n = day0 - fed
		}
		epoch++
		feedEpoch(t, h, ref, workerBase, assign, epoch, n)
	}

	// Take every office online: /v1/train on each worker (its queue is
	// empty — every dispatch was an epoch flush), mirrored by finishing
	// every reference office.
	trained := 0
	for _, w := range []string{"w1", "w2"} {
		resp, err := http.Post(workerBase[w]+"/v1/train", "application/json", nil)
		if err != nil {
			t.Fatalf("POST /v1/train to %s: %v", w, err)
		}
		var tr e2eTrainResult
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decode %s train: %v", w, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(tr.Errors) > 0 {
			t.Fatalf("/v1/train on %s = %d %+v", w, resp.StatusCode, tr)
		}
		trained += len(tr.Trained)
	}
	if trained != clusterFleet {
		t.Fatalf("workers trained %d offices, want %d", trained, clusterFleet)
	}
	if err := ref.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range resolved {
		if ref.fleet.System(i).Phase() == core.PhaseTraining {
			if err := ref.fleet.FinishTrainingOffice(i); err != nil {
				t.Fatalf("reference train office %d: %v", i, err)
			}
		}
	}

	// Day 1, first half: the online cluster raises real alerts.
	h.startDay(1)
	day1 := ds.Days[1].Ticks
	halfDay := day1 / 2
	for fed := 0; fed < halfDay; fed += window {
		n := window
		if halfDay-fed < n {
			n = halfDay - fed
		}
		epoch++
		feedEpoch(t, h, ref, workerBase, assign, epoch, n)
	}
	preJoin := ref.batchCount()
	if preJoin == 0 {
		t.Fatal("no action batches before the join; the cluster never came online")
	}

	// w3 joins. Order matters and is the documented operator procedure:
	// tell the coordinator first (so w3's shard fetch succeeds), start
	// w3 (its tagged sink dials the router inside serve.New, so the
	// router's watermark holds before any epoch can include it), then
	// reload the survivors so they drop the moved offices. Feeding is
	// paused throughout, so no epoch straddles the reshard.
	req, err := http.NewRequest(http.MethodPut, coordBase+"/v1/workers",
		bytes.NewReader([]byte(`{"workers":["w1","w2","w3"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /v1/workers: %v", err)
	}
	var asV2 clusterAssignments
	if err := json.NewDecoder(resp.Body).Decode(&asV2); err != nil {
		t.Fatalf("decode join assignments: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || asV2.Generation != 2 {
		t.Fatalf("PUT /v1/workers = %d, generation %d", resp.StatusCode, asV2.Generation)
	}

	// Exactly the moved offices draw fresh gids, in spec order from 48.
	var moved []string
	nextGID := clusterFleet
	prevAssign := assign
	for i, o := range asV2.Offices {
		if o.Worker == prevAssign[o.Name] {
			if o.GID != asV1.Offices[i].GID {
				t.Fatalf("office %s did not move but its gid changed %d→%d", o.Name, asV1.Offices[i].GID, o.GID)
			}
			continue
		}
		if o.Worker != "w3" {
			t.Fatalf("office %s moved %s→%s; a join only moves offices onto the joiner",
				o.Name, prevAssign[o.Name], o.Worker)
		}
		if o.GID != nextGID {
			t.Fatalf("moved office %s gid %d, want fresh gid %d (spec order)", o.Name, o.GID, nextGID)
		}
		moved = append(moved, o.Name)
		nextGID++
	}
	if len(moved) == 0 {
		t.Fatal("no office moved to w3; the join resharded nothing")
	}
	t.Logf("join moves %d/%d offices to w3: %v", len(moved), clusterFleet, moved)

	w3 := startWorker("w3")
	workerBase["w3"] = "http://" + w3.addr(t)
	workerProc["w3"] = w3

	// Reload the survivors and wait until each converges on its gen-2
	// shard (the moved offices gone).
	for _, w := range []string{"w1", "w2"} {
		if err := workerProc[w].cmd.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatalf("SIGHUP %s: %v", w, err)
		}
	}
	wantCount := map[string]int{}
	for _, o := range asV2.Offices {
		wantCount[o.Worker]++
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, w := range []string{"w1", "w2", "w3"} {
		for {
			st := getStatus(t, workerBase[w])
			if st.GenerationLag == 0 && st.LiveOffices == wantCount[w] && st.LastReconcileError == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never converged on the gen-2 shard: %+v\nstderr:\n%s",
					w, st, workerProc[w].errOutput())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Mirror the reshard in the reference: the moved offices restart as
	// fresh Systems, so remove them all, then re-add in spec order — the
	// fresh reference IDs must land exactly on the fresh gids.
	removeIDs := make([]int, 0, len(moved))
	for _, name := range moved {
		removeIDs = append(removeIDs, refID[name])
	}
	sort.Ints(removeIDs)
	for _, id := range removeIDs {
		if _, err := ref.ing.RemoveOffice(id); err != nil {
			t.Fatalf("reference remove office %d: %v", id, err)
		}
	}
	cfgByName := make(map[string]core.Config, len(resolved))
	for _, ro := range resolved {
		cfgByName[ro.Name] = ro.Config
	}
	for _, name := range moved {
		id, err := ref.add(cfgByName[name])
		if err != nil {
			t.Fatalf("reference re-add %s: %v", name, err)
		}
		wantGID := -1
		for _, o := range asV2.Offices {
			if o.Name == name {
				wantGID = o.GID
			}
		}
		if id != wantGID {
			t.Fatalf("reference re-added %s as id %d, coordinator issued gid %d — the identity anchor broke",
				name, id, wantGID)
		}
		refID[name] = id
		// The fresh System trains from the top of the dataset.
		h.removeFeeder(name)
		h.addFeeder(name, id)
	}
	assign = officeWorkerMap(asV2)

	// Day 1, second half: survivors continue mid-day; the moved offices
	// feed day-0 training data from tick 0 on their new node.
	for fed := halfDay; fed < day1; fed += window {
		n := window
		if day1-fed < n {
			n = day1 - fed
		}
		epoch++
		feedEpoch(t, h, ref, workerBase, assign, epoch, n)
	}
	if ref.batchCount() == preJoin {
		t.Fatal("no action batches after the join; the surviving offices went quiet")
	}

	// Drain: SIGTERM every worker — each sends its final tagged frame —
	// then the router completes on its own and exits 0.
	for _, w := range []string{"w1", "w2", "w3"} {
		workerProc[w].term(t, 30*time.Second)
	}
	router.wait(t, 30*time.Second)
	if !strings.Contains(router.errOutput(), "routed ") {
		t.Fatalf("router never printed its summary; stderr:\n%s", router.errOutput())
	}
	coord.term(t, 10*time.Second)

	// The byte-identity claim: the routed stream equals the reference
	// fleet's dispatch sequence, rendered in the same codec-v1 JSONL.
	ref.mu.Lock()
	batches := ref.batches
	ref.mu.Unlock()
	var want []byte
	actions := 0
	for _, b := range batches {
		want = wire.AppendJSONL(want, b)
		actions += len(b)
	}
	if actions == 0 {
		t.Fatal("reference produced no actions")
	}
	t.Logf("%d actions in %d batches over %d epochs", actions, len(batches), epoch)
	if got := router.stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("routed stream diverged from the single-process reference: got %d bytes, want %d",
			len(got), len(want))
	}

	// The bytes-moved claim: with -compress on, the workers' wire frames
	// (forward stream + segment log) must shrink the traffic at least
	// 2.5× versus the logical (uncompressed-equivalent) frame bytes the
	// end-of-run stderr lines report — while the decoded output above
	// stayed byte-identical.
	var logical, wired uint64
	var segLogical uint64
	for _, w := range []string{"w1", "w2", "w3"} {
		for _, kind := range []string{"forward", "segments"} {
			frames, lb, wb := runStatLine(t, workerProc[w], kind)
			if frames == 0 || lb == 0 {
				t.Fatalf("%s reported no %s traffic: %d frames, %d logical bytes", w, kind, frames, lb)
			}
			if wb >= lb {
				t.Fatalf("%s %s: wire bytes %d >= logical bytes %d; compression never engaged", w, kind, wb, lb)
			}
			logical += lb
			wired += wb
			if kind == "segments" {
				segLogical += lb
			}
		}
	}
	ratio := float64(logical) / float64(wired)
	t.Logf("compression: %d logical bytes -> %d wire bytes (%.2fx)", logical, wired, ratio)
	if ratio < 2.5 {
		t.Fatalf("worker bytes-moved shrank only %.2fx (logical %d / wire %d), want >= 2.5x", ratio, logical, wired)
	}

	// On-disk proof for the segment legs: the directories really are
	// small, and still replay — the three logs together must hold every
	// dispatched action the reference produced, each under a gid the
	// coordinator assigned to the worker whose log holds it.
	gidWorker := make(map[int]string)
	for _, as := range []clusterAssignments{asV1, asV2} {
		for _, o := range as.Offices {
			gidWorker[o.GID] = o.Worker
		}
	}
	var diskBytes int64
	replayed := 0
	for _, w := range []string{"w1", "w2", "w3"} {
		segDir := filepath.Join(dir, "seg-"+w)
		entries, err := os.ReadDir(segDir)
		if err != nil {
			t.Fatalf("read %s segment dir: %v", w, err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".fwl") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			diskBytes += info.Size()
		}
		r, err := segment.OpenDir(segDir, segment.Options{})
		if err != nil {
			t.Fatalf("open %s segment dir: %v", w, err)
		}
		for {
			batch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("replay %s segment dir: %v", w, err)
			}
			for _, a := range batch {
				if owner, ok := gidWorker[a.Office]; !ok || owner != w {
					t.Fatalf("%s segment log holds office %d, which the assignments give to %q", w, a.Office, owner)
				}
			}
			replayed += len(batch)
		}
		r.Close()
	}
	if replayed != actions {
		t.Fatalf("worker segment logs replay %d actions, reference dispatched %d", replayed, actions)
	}
	diskRatio := float64(segLogical) / float64(diskBytes)
	t.Logf("segment dirs: %d logical bytes on %d disk bytes (%.2fx)", segLogical, diskBytes, diskRatio)
	if diskRatio < 2.5 {
		t.Fatalf("segment dirs shrank only %.2fx (logical %d / disk %d), want >= 2.5x", diskRatio, segLogical, diskBytes)
	}
}

// runStatLine finds the worker's end-of-run byte accounting on stderr:
// "fadewich-serve: KIND: N frames, N logical bytes, N wire bytes".
func runStatLine(t *testing.T, p *proc, kind string) (frames, logical, wire uint64) {
	t.Helper()
	prefix := "fadewich-serve: " + kind + ": "
	for _, line := range strings.Split(p.errOutput(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		if _, err := fmt.Sscanf(rest, "%d frames, %d logical bytes, %d wire bytes", &frames, &logical, &wire); err != nil {
			t.Fatalf("%s stat line %q: %v", p.name, line, err)
		}
		return frames, logical, wire
	}
	t.Fatalf("%s never printed its %q run stats; stderr:\n%s", p.name, kind, p.errOutput())
	return 0, 0, 0
}
