// Command fadewich-bench is the repository's end-to-end benchmark. It
// builds the real fadewich-serve and fadewich-tail binaries from source
// and runs them as child processes, so the system under test is exactly
// what operators run; this process is the load generator and the
// measuring tap. See README.md for the workloads, the metrics and how to
// read them.
//
// Usage:
//
//	bash cmd/fadewich-bench/run.sh [-workload NAME|all] [-seed S]
//	     [-seconds N] [-trace 0|1|SPANS.json] [-scale full|smoke]
//	     [-runs N] [-out result.json]
//	bash cmd/fadewich-bench/run.sh -compare A.json B.json
//
// Every metric is printed as "workload metric value unit". A run of a
// single workload ends with one JSON line holding the run's verdict and
// the metrics BENCHMARK.json names: its end-to-end metrics untraced, its
// per-layer metrics with -trace. Any failed correctness check, error or
// budget overrun exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fadewich/internal/vmath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
	scale    string
	runs     int
	out      string
	root     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fadewich-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Uint64Var(&o.seed, "seed", 42, "input seed; run i of -runs uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run: BENCHMARK.json's run_seconds; serve-paced needs 30 for its p999")
	traceFlag := fs.String("trace", "0", "0 = untraced run; 1 = traced run with the per-layer replay; any other value is the span file a traced run writes")
	fs.StringVar(&o.scale, "scale", "full", "full or smoke (8 offices, 2 s, one set-up: a quick functional check)")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload; with more than one, also print each metric's median and quartiles")
	fs.StringVar(&o.out, "out", "", "also write every run, with provenance, to this JSON file")
	fs.StringVar(&o.root, "root", ".", "repository root to build the daemons from")
	compare := fs.Bool("compare", false, "compare two -out files (A = parent, B = change) against the BENCHMARK.json bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "fadewich-bench: %v\n", err)
		return 2
	}
	o.root = root
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "fadewich-bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, o.root, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "fadewich-bench: %v\n", err)
			return 1
		}
		return 0
	}
	switch *traceFlag {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		o.trace, o.spans = true, *traceFlag
	}
	if o.scale != "full" && o.scale != "smoke" {
		fmt.Fprintf(stderr, "fadewich-bench: unknown -scale %q (want full or smoke)\n", o.scale)
		return 2
	}
	if o.runs < 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "fadewich-bench: -runs and -seconds must be at least 1")
		return 2
	}
	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else if w := lookupWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "fadewich-bench: unknown workload %q (want %s or all)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := execute(o, selected, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "fadewich-bench: %v\n", err)
		return 1
	}
	return 0
}

// env is what a workload run needs from the invocation.
type env struct {
	work  string // the run's working directory, inside the checkout
	bins  map[string]string
	smoke bool
}

// execute runs every selected workload o.runs times and reports.
func execute(o options, selected []*workload, stdout, stderr io.Writer) error {
	build := filepath.Join(o.root, ".bench_build")
	e := &env{work: filepath.Join(build, "work"), smoke: o.scale == "smoke"}
	var err error
	e.bins, err = buildBinaries(o.root, filepath.Join(build, "bin"), "fadewich-serve", "fadewich-tail")
	if err != nil {
		return err
	}
	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	prov := newProvenance(o.root)
	fmt.Fprintf(stdout, "# %s\n", prov)

	var all []*result
	var traces []runTrace
	ok := true
	for _, w := range selected {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + uint64(i)
			r, sp, err := runWorkload(o, e, w, seed)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, seed, err)
			}
			spec.requireNamed(r)
			r.finish()
			r.print(stdout)
			all = append(all, r)
			ok = ok && r.Correct
			if sp != nil {
				traces = append(traces, runTrace{Workload: w.name, Seed: seed, Spans: sp.list})
			}
		}
	}
	if o.runs > 1 {
		printSummary(stdout, all)
	}
	if o.trace {
		path := o.spans
		if path == "" {
			path = filepath.Join(build, "spans.json")
		}
		if err := writeJSON(path, traces); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fadewich-bench: wrote the spans of %d traced runs to %s\n", len(traces), path)
	}
	if o.out != "" {
		if err := writeJSON(o.out, resultFile{Provenance: prov, Runs: all}); err != nil {
			return err
		}
	}
	if len(all) == 1 {
		if err := printResultLine(stdout, spec, all[0]); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("a correctness check failed")
	}
	return nil
}

// runWorkload runs one workload under its watchdog: a run that exceeds
// twice its budget is cancelled, which kills its daemons, and fails with
// a named error instead of hanging.
func runWorkload(o options, e *env, w *workload, seed uint64) (*result, *spans, error) {
	seconds := o.seconds
	if e.smoke {
		seconds = 2
	}
	budget := runBudget(seconds)
	if o.trace {
		// The replay repeats about the live part's work in process.
		budget *= 2
	}
	// SIGINT or SIGTERM cancels the run like the watchdog does, which
	// kills its daemons instead of leaving them orphaned.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := freshDir(e.work); err != nil {
		return nil, nil, err
	}
	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	type outcome struct {
		r   *result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		r, err := w.run(ctx, e, runSpec{seed: seed, seconds: seconds, spans: sp})
		done <- outcome{r, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(2 * budget):
		// Cancelling kills the run's daemons; give the run a moment to
		// reap them before reporting.
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
		return nil, nil, fmt.Errorf("workload %s ran past twice its %v budget", w.name, budget)
	}
	if out.err != nil {
		return nil, nil, out.err
	}
	r := out.r
	r.Workload, r.Seed, r.Trace, r.Seconds = w.name, seed, o.trace, seconds
	r.Wall = time.Since(start).Seconds()
	return r, sp, nil
}

// runTrace is one traced run's spans, as the span file holds them.
type runTrace struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// runSpec is one run's inputs.
type runSpec struct {
	seed    uint64
	seconds int
	spans   *spans // nil for an untraced run
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, rs runSpec) (*result, error)
}

// runBudget is the wall time a run measuring the given seconds should
// take: 30 s beyond the measured window for input generation, set-ups,
// drain and the reference run.
func runBudget(seconds int) time.Duration {
	return time.Duration(30+seconds) * time.Second
}

var workloads = []*workload{
	{name: "serve-paced", run: servePaced},
	{name: "cluster-paced", run: clusterPaced},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Wall      float64           `json:"wall_s"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []string          `json:"failed_checks,omitempty"`
	order     []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// set records a metric; printing follows the order of first set.
func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check: the run is incorrect and
// every attempted unit of work counts as failed.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// finish settles the failure count once checks have run.
func (r *result) finish() {
	if !r.Correct {
		r.Failed = r.Attempted
	}
	if r.Attempted > 0 {
		r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
}

func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	status := "ok"
	if !r.Correct {
		status = "FAILED: " + strings.Join(r.Checks, "; ")
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v attempted=%d failed=%d wall=%.1fs checks %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Wall, status)
}

// printResultLine prints the final JSON line: the run's verdict and the
// metrics BENCHMARK.json names for this mode, end-to-end untraced and
// per-layer traced.
func printResultLine(w io.Writer, spec *benchSpec, r *result) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, m := range spec.named(r.Trace) {
		if v, ok := r.Metrics[m.Name]; ok {
			out.Metrics[m.Name] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// named returns the metrics a run must report: the end-to-end ones
// untraced, the per-layer ones traced.
func (s *benchSpec) named(traced bool) []benchMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// requireNamed fails a run that did not measure, in its unit, every
// metric BENCHMARK.json names for its mode.
func (s *benchSpec) requireNamed(r *result) {
	for _, m := range s.named(r.Trace) {
		if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			r.fail("no %s in %s, which BENCHMARK.json names", m.Name, m.Unit)
		}
	}
}

// provenance records where and what a result was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	VMath      string `json:"vmath"`
	Commit     string `json:"commit"`
}

func newProvenance(root string) provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		VMath:      vmath.ActivePath(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// An explicit --git-dir keeps git from searching the directories above
	// a checkout that is not a repository.
	cmd := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

func (p provenance) String() string {
	return fmt.Sprintf("provenance nproc=%d gomaxprocs=%d cpu=%q go=%s vmath=%s commit=%s",
		p.NProc, p.GOMAXPROCS, p.CPU, p.Go, p.VMath, p.Commit)
}

// resultFile is the -out format.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series groups run values by workload and metric.
type series struct {
	units  map[string]string
	values map[string]map[string][]float64 // workload → metric → values
}

func collect(runs []*result) *series {
	s := &series{units: map[string]string{}, values: map[string]map[string][]float64{}}
	for _, r := range runs {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			s.units[name] = m.Unit
		}
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printSummary prints each metric's median and quartiles across runs.
func printSummary(w io.Writer, runs []*result) {
	s := collect(runs)
	fmt.Fprintln(w, "# summary: workload metric median q1 q3 spread unit")
	for _, wl := range sortedKeys(s.values) {
		for _, name := range sortedKeys(s.values[wl]) {
			xs := s.values[wl][name]
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(w, "%s %s %s %s %s %.3f %s\n", wl, name,
				strconv.FormatFloat(med, 'g', 6, 64), strconv.FormatFloat(q1, 'g', 6, 64),
				strconv.FormatFloat(q3, 'g', 6, 64), spread(xs), s.units[name])
		}
	}
}

// compareFiles labels every end-to-end metric × workload of two result
// files by the BENCHMARK.json bounds, and shows every other metric both
// files hold (per-layer ones, and printed metrics BENCHMARK.json does
// not bound) beside them without a verdict.
func compareFiles(w io.Writer, root, pathA, pathB string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	sa, sb := collect(a.Runs), collect(b.Runs)
	fmt.Fprintf(w, "# A: %s\n# B: %s\n", a.Provenance, b.Provenance)
	fmt.Fprintln(w, "# workload metric median_A median_B delta spread_A spread_B bound verdict")
	for _, wl := range sortedKeys(sa.values) {
		gated := map[string]bool{}
		for _, m := range spec.EndToEnd {
			va, vb := sa.values[wl][m.Name], sb.values[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			gated[m.Name] = true
			label, delta := verdict(va, vb, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%s %s %.6g %.6g %+.1f%% %.3f %.3f %.2f %s\n",
				wl, m.Name, median(va), median(vb), 100*delta, spread(va), spread(vb), m.Bound, label)
		}
		for _, name := range sortedKeys(sa.values[wl]) {
			va, vb := sa.values[wl][name], sb.values[wl][name]
			if gated[name] || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%s %s %.6g %.6g %s %.3f %.3f - no-bound\n",
				wl, name, median(va), median(vb), relDelta(va, vb), spread(va), spread(vb))
		}
	}
	return nil
}

// relDelta formats the change of B's median against A's.
func relDelta(a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
}
