package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fadewich/internal/sim"
)

// outputs caches runOutput by experiment and worker count, and
// datasets the 1-day dataset by worker count with the line generating
// it printed, so the tests that read one run share it and every run at
// one worker count shares one dataset.
var outputs struct {
	sync.Mutex
	m        map[string]string
	datasets map[int]dataset
}

type dataset struct {
	ds     *sim.Dataset
	header string
}

// setupTime matches the one wall-clock figure run prints, the dataset's
// generation time.
var setupTime = regexp.MustCompile(`dataset ready in [0-9.]+s`)

// capture returns what f prints to stdout, and f's error.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = file
	err = f()
	os.Stdout = stdout
	if cerr := file.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	out, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// runOutput returns what run prints for one experiment on a 1-day
// dataset with 3 input draws and parallel workers, with the set-up time
// masked. It runs the experiment through a fresh harness on the cached
// dataset, behind the line generating that dataset printed.
func runOutput(t *testing.T, exp string, parallel int) string {
	t.Helper()
	key := fmt.Sprintf("%s/%d", exp, parallel)
	outputs.Lock()
	defer outputs.Unlock()
	if out, ok := outputs.m[key]; ok {
		return out
	}
	d, ok := outputs.datasets[parallel]
	if !ok {
		var err error
		d.header, err = capture(t, func() (err error) {
			d.ds, err = generate(1, 42, parallel)
			return err
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if outputs.datasets == nil {
			outputs.datasets = make(map[int]dataset)
		}
		outputs.datasets[parallel] = d
	}
	out, err := capture(t, func() error { return runOn(d.ds, time.Now(), exp, 42, 3, parallel, false) })
	if err != nil {
		t.Fatalf("-exp %s: %v", exp, err)
	}
	if outputs.m == nil {
		outputs.m = make(map[string]string)
	}
	outputs.m[key] = setupTime.ReplaceAllString(d.header+out, "dataset ready in _s")
	return outputs.m[key]
}

// paperExps are the experiments whose output TestPaperOutputsGolden
// pins: the deauthentication-time and usability figures and tables.
var paperExps = []string{"fig9", "table3", "table4", "fig10", "fig13"}

// goldenPaperOutputs is the SHA-256 of paperExps' outputs, each after
// a "== exp ==" line, on the 1-day, 3-draw run of runOutput. A change
// that moves a paper figure re-pins it, and its failure message holds
// the tables to paste into the change's notes.
const goldenPaperOutputs = "37b513706adeb653b19dbbccdcfd51df663b400bce4a5ffc503f8c609d00788c"

// TestPaperOutputsGolden pins the paper's outputs, and checks that
// they do not depend on the worker count.
func TestPaperOutputsGolden(t *testing.T) {
	all := func(parallel int) string {
		var b strings.Builder
		for _, exp := range paperExps {
			fmt.Fprintf(&b, "== %s ==\n%s", exp, runOutput(t, exp, parallel))
		}
		return b.String()
	}
	one, two := all(1), all(2)
	if one != two {
		t.Fatalf("outputs at -parallel 1:\n%s\ndiffer from -parallel 2:\n%s", one, two)
	}
	sum := sha256.Sum256([]byte(two))
	if got := hex.EncodeToString(sum[:]); got != goldenPaperOutputs {
		t.Fatalf("paper outputs moved: sha256 %s, pinned %s; the tables now read:\n%s", got, goldenPaperOutputs, two)
	}
}

func TestRunFig9(t *testing.T) {
	out := runOutput(t, "fig9", 2)
	for _, col := range []string{"% ≤ 4s", "% ≤ 6s", "% ≤ 8.2s", "% ≤ 10s"} {
		if !strings.Contains(out, col) {
			t.Fatalf("fig9 output lacks the %q column:\n%s", col, out)
		}
	}
}

func TestRunTable4(t *testing.T) {
	out := runOutput(t, "table4", 2)
	if !strings.Contains(out, "over 3 input draws") || !strings.Contains(out, "cost s/day") {
		t.Fatalf("table4 output:\n%s", out)
	}
}
