package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"fadewich/internal/core"
	"fadewich/internal/promtext"
	"fadewich/internal/serve"
)

// CoordinatorConfig parameterises a Coordinator.
type CoordinatorConfig struct {
	// SpecPath is the full fleet spec the coordinator shards (required).
	// Its offices must NOT carry gids — the coordinator owns gid
	// assignment.
	SpecPath string
	// Workers is the initial worker set, in the order their wire source
	// IDs are assigned (worker i gets source i+1).
	Workers []string
	// Replicas is the ring points per worker (0 selects
	// DefaultReplicas).
	Replicas int
}

// assignment is the coordinator's record of one office's placement.
type assignment struct {
	gid    int
	worker string
	cfg    core.Config
}

// Coordinator owns the cluster's desired state: the full fleet spec,
// the worker set, and the office→worker assignment with its gid
// bookkeeping. It serves per-worker sub-specs over HTTP (it implements
// http.Handler) and recomputes assignments on spec reload and worker
// set changes. All methods are safe for concurrent use.
type Coordinator struct {
	mu       sync.Mutex
	specPath string
	replicas int
	workers  []string // current membership, in join order
	sources  map[string]uint8
	nextSrc  uint8
	spec     *serve.Spec
	resolved []serve.ResolvedOffice
	assign   map[string]assignment
	nextGID  int
	gen      uint64
	reloads  uint64
	mux      *http.ServeMux
}

// NewCoordinator loads and shards the spec over the initial workers.
// Gids assign 0..n−1 in spec order — the same IDs a single-process
// fleet of the full spec would use, which is what anchors the cluster's
// byte-identity guarantee.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.SpecPath == "" {
		return nil, fmt.Errorf("cluster: coordinator needs a spec path")
	}
	c := &Coordinator{
		specPath: cfg.SpecPath,
		replicas: cfg.Replicas,
		sources:  make(map[string]uint8),
		assign:   make(map[string]assignment),
	}
	if err := c.setWorkersLocked(cfg.Workers); err != nil {
		return nil, err
	}
	if err := c.reloadLocked(); err != nil {
		return nil, err
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /v1/assignments", c.handleAssignments)
	c.mux.HandleFunc("GET /v1/shard/{worker}", c.handleShard)
	c.mux.HandleFunc("PUT /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/reload", c.handleReload)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// setWorkersLocked installs a new worker set, assigning wire source IDs
// to first-seen names from a monotonic counter. Source IDs are never
// reused: a worker that leaves and rejoins keeps its ID, and a new
// worker can never inherit a departed worker's ID — the router's
// per-source state depends on that.
func (c *Coordinator) setWorkersLocked(workers []string) error {
	if len(workers) == 0 {
		return fmt.Errorf("cluster: coordinator needs at least one worker")
	}
	seen := make(map[string]bool, len(workers))
	for _, w := range workers {
		if w == "" {
			return fmt.Errorf("cluster: empty worker name")
		}
		if seen[w] {
			return fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	for _, w := range workers {
		if _, ok := c.sources[w]; !ok {
			if c.nextSrc == 255 {
				return fmt.Errorf("cluster: out of wire source IDs (255 workers ever seen)")
			}
			c.nextSrc++
			c.sources[w] = c.nextSrc
		}
	}
	c.workers = append([]string(nil), workers...)
	return nil
}

// reloadLocked re-reads the spec file and recomputes assignments.
// All-or-nothing: an unreadable or invalid spec leaves the previous
// assignment untouched.
func (c *Coordinator) reloadLocked() error {
	raw, err := os.ReadFile(c.specPath)
	if err != nil {
		return fmt.Errorf("cluster: fleet spec: %w", err)
	}
	spec, err := serve.ParseSpec(raw)
	if err != nil {
		return err
	}
	resolved, err := spec.Resolve()
	if err != nil {
		return err
	}
	if len(resolved) == 0 {
		return fmt.Errorf("cluster: fleet spec: no offices (nothing to shard)")
	}
	for i, ro := range resolved {
		if ro.GID >= 0 {
			return fmt.Errorf("cluster: office %d (%q) carries a gid; the coordinator owns gid assignment", i, ro.Name)
		}
	}
	c.spec = spec
	c.resolved = resolved
	c.reloads++
	return c.recomputeLocked()
}

// recomputeLocked re-shards the current spec over the current workers.
// An office keeps its gid only while both its owner and its resolved
// configuration are unchanged; otherwise it draws a fresh gid from the
// monotonic counter, in spec order — mirroring exactly the fresh fleet
// IDs a single-process reconciler assigns when it applies the same
// change as a remove+add.
func (c *Coordinator) recomputeLocked() error {
	ring, err := NewRing(c.workers, c.replicas)
	if err != nil {
		return err
	}
	next := make(map[string]assignment, len(c.resolved))
	for _, ro := range c.resolved {
		w := ring.Assign(ro.Name)
		a, ok := c.assign[ro.Name]
		if !ok || a.worker != w || a.cfg != ro.Config {
			a = assignment{gid: c.nextGID, worker: w, cfg: ro.Config}
			c.nextGID++
		}
		next[ro.Name] = a
	}
	c.assign = next
	c.gen++
	return nil
}

// ShardSpec is the GET /v1/shard/{worker} response: the worker's
// identity on the wire, the assignment generation it reflects, and its
// gid-stamped sub-spec — a complete serve fleet spec the worker feeds
// straight into serve.Config.SpecSource.
type ShardSpec struct {
	Worker     string          `json:"worker"`
	Source     uint8           `json:"source"`
	Generation uint64          `json:"generation"`
	Offices    int             `json:"offices"`
	Spec       json.RawMessage `json:"spec"`
}

// Shard builds the named worker's current sub-spec.
func (c *Coordinator) Shard(worker string) (*ShardSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.sources[worker]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown worker %q", worker)
	}
	sub := serve.Spec{Defaults: c.spec.Defaults}
	for _, o := range c.spec.Offices {
		a := c.assign[o.Name]
		if a.worker != worker {
			continue
		}
		gid := a.gid
		o.GID = &gid
		sub.Offices = append(sub.Offices, o)
	}
	raw, err := json.Marshal(sub)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal sub-spec: %w", err)
	}
	return &ShardSpec{
		Worker:     worker,
		Source:     src,
		Generation: c.gen,
		Offices:    len(sub.Offices),
		Spec:       raw,
	}, nil
}

// SetWorkers replaces the worker set and re-shards. Offices on
// unchanged arcs keep their worker and gid; moved offices draw fresh
// gids in spec order.
func (c *Coordinator) SetWorkers(workers []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.workers
	if err := c.setWorkersLocked(workers); err != nil {
		return err
	}
	if err := c.recomputeLocked(); err != nil {
		c.workers = prev
		return err
	}
	return nil
}

// Reload re-reads the spec file and re-shards.
func (c *Coordinator) Reload() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reloadLocked()
}

// WorkerAssignment is one worker's row in the /v1/assignments view.
type WorkerAssignment struct {
	Name    string   `json:"name"`
	Source  uint8    `json:"source"`
	Offices []string `json:"offices"`
}

// OfficeAssignment is one office's row in the /v1/assignments view.
type OfficeAssignment struct {
	Name   string `json:"name"`
	GID    int    `json:"gid"`
	Worker string `json:"worker"`
}

// Assignments is the GET /v1/assignments response.
type Assignments struct {
	Generation uint64             `json:"generation"`
	GIDsIssued int                `json:"gids_issued"`
	Workers    []WorkerAssignment `json:"workers"`
	Offices    []OfficeAssignment `json:"offices"`
}

// Assignments snapshots the current placement: workers in join order,
// offices in spec order.
func (c *Coordinator) Assignments() Assignments {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Assignments{Generation: c.gen, GIDsIssued: c.nextGID}
	byWorker := make(map[string][]string, len(c.workers))
	for _, o := range c.spec.Offices {
		a := c.assign[o.Name]
		out.Offices = append(out.Offices, OfficeAssignment{Name: o.Name, GID: a.gid, Worker: a.worker})
		byWorker[a.worker] = append(byWorker[a.worker], o.Name)
	}
	for _, w := range c.workers {
		out.Workers = append(out.Workers, WorkerAssignment{Name: w, Source: c.sources[w], Offices: byWorker[w]})
	}
	return out
}

func (c *Coordinator) handleAssignments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Assignments())
}

func (c *Coordinator) handleShard(w http.ResponseWriter, r *http.Request) {
	ss, err := c.Shard(r.PathValue("worker"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, ss)
}

// workersRequest is the PUT /v1/workers body.
type workersRequest struct {
	Workers []string `json:"workers"`
}

// maxWorkersBody bounds the PUT /v1/workers body. A worker list is a
// few names, so anything near this size is a client bug or an attack.
const maxWorkersBody = 1 << 20

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	var req workersRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkersBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad workers body: %v", err), status)
		return
	}
	if err := c.SetWorkers(req.Workers); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, c.Assignments())
}

func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := c.Reload(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, c.Assignments())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	gen, workers, offices, gids, reloads := c.gen, len(c.workers), len(c.assign), c.nextGID, c.reloads
	c.mu.Unlock()
	var p promtext.Writer
	p.Metric("fadewich_coord_generation", "counter", "Assignment generation (bumped on reload and worker set changes).")
	p.Sample("fadewich_coord_generation", float64(gen))
	p.Metric("fadewich_coord_workers", "gauge", "Current worker count.")
	p.Sample("fadewich_coord_workers", float64(workers))
	p.Metric("fadewich_coord_offices", "gauge", "Offices in the current spec.")
	p.Sample("fadewich_coord_offices", float64(offices))
	p.Metric("fadewich_coord_gids_issued", "counter", "Global office IDs ever issued.")
	p.Sample("fadewich_coord_gids_issued", float64(gids))
	p.Metric("fadewich_coord_reloads_total", "counter", "Successful spec reloads.")
	p.Sample("fadewich_coord_reloads_total", float64(reloads))
	p.Serve(w)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// FetchShard retrieves a worker's sub-spec from a coordinator base URL
// (e.g. "http://127.0.0.1:9300"). The zero client uses
// http.DefaultClient.
func FetchShard(client *http.Client, baseURL, worker string) (*ShardSpec, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/v1/shard/" + worker)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch shard: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch shard: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetch shard: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ss ShardSpec
	if err := json.Unmarshal(body, &ss); err != nil {
		return nil, fmt.Errorf("cluster: fetch shard: %w", err)
	}
	return &ss, nil
}
