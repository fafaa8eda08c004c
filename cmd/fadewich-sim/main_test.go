package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenStdoutSHA256 pins the full stdout of `fadewich-sim -days 2 -seed 99`:
// the training-day lines, every online deauthentication and its score. The
// run is seeded end to end, so the bytes are the same at every -parallel
// width.
const goldenStdoutSHA256 = "863f4b74b28ff61babbcd20dffda9ba6477f1997b3651246f775bf253e49bdc0"

// buildSim compiles this command into dir and returns the binary path.
func buildSim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "fadewich-sim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestSingleOfficeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and simulates two days per run; skipped in -short")
	}
	bin := buildSim(t, t.TempDir())
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"parallel-1", []string{"-parallel", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-days", "2", "-seed", "99"}, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("fadewich-sim %v: %v\n%s", args, err, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != goldenStdoutSHA256 {
				t.Fatalf("stdout SHA-256 = %s, want %s; stdout:\n%s", got, goldenStdoutSHA256, stdout.String())
			}
		})
	}
}

// TestFlags pins the command-line surface: the single-office run's knobs
// and the profile flags, nothing else.
func TestFlags(t *testing.T) {
	bin := buildSim(t, t.TempDir())
	// -h's exit status differs across Go releases; only the listing counts.
	out, _ := exec.Command(bin, "-h").CombinedOutput()
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	want := []string{"cpuprofile", "days", "memprofile", "mutexprofile", "parallel", "seed", "sensors", "v"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("-h lists %v, want %v\n%s", names, want, out)
	}

	out, err := exec.Command(bin, "-offices", "2").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -offices") {
		t.Errorf("-offices 2: err %v, output:\n%s", err, out)
	}
}
