package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOutput runs one experiment on a 1-day dataset with 3 input draws
// and returns what it printed.
func runOutput(t *testing.T, exp string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(exp, 1, 42, 3, 2, false)
	os.Stdout = stdout
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("-exp %s: %v", exp, err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunFig9(t *testing.T) {
	out := runOutput(t, "fig9")
	for _, col := range []string{"% ≤ 4s", "% ≤ 6s", "% ≤ 8.2s", "% ≤ 10s"} {
		if !strings.Contains(out, col) {
			t.Fatalf("fig9 output lacks the %q column:\n%s", col, out)
		}
	}
}

func TestRunTable4(t *testing.T) {
	out := runOutput(t, "table4")
	if !strings.Contains(out, "over 3 input draws") || !strings.Contains(out, "cost s/day") {
		t.Fatalf("table4 output:\n%s", out)
	}
}
