package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Bounded waits: a daemon that does not print its address, or does not
// finish draining, within this long fails the run with a named error.
const (
	addrTimeout  = 30 * time.Second
	drainTimeout = 30 * time.Second
)

// buildBinaries compiles the repository's own daemons from source into
// binDir, so the system under test is exactly what operators run.
func buildBinaries(root, binDir string, names ...string) (map[string]string, error) {
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(binDir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins, nil
}

// proc is one child daemon: its stderr is scanned for the bound-address
// line and kept for failure reports; its rusage is read once it exits.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addrCh  chan string
	scanned chan struct{}
	exited  bool

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startProc launches bin. Killing it when ctx ends is exec's job; the
// caller reaps it with drain or kill.
func startProc(ctx context.Context, name, addrPrefix, bin string, args ...string) (*proc, error) {
	p := &proc{
		name:    name,
		cmd:     exec.CommandContext(ctx, bin, args...),
		addrCh:  make(chan string, 1),
		scanned: make(chan struct{}),
	}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(pipe)
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
	return p, nil
}

// errOutput returns the stderr lines seen so far.
func (p *proc) errOutput() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// addr waits for the daemon to report its bound address.
func (p *proc) addr() (string, error) {
	select {
	case a := <-p.addrCh:
		return a, nil
	case <-p.scanned:
		return "", fmt.Errorf("%s exited before printing its address; stderr:\n%s", p.name, p.errOutput())
	case <-time.After(addrTimeout):
		return "", fmt.Errorf("%s did not print its address within %v; stderr:\n%s", p.name, addrTimeout, p.errOutput())
	}
}

// drain asks the daemon to shut down cleanly (SIGTERM) and waits for it
// to exit. Stderr is read to EOF before the child is reaped: Wait closes
// the pipe, and reaping concurrently with the scanner can lose the last
// lines.
func (p *proc) drain() error {
	if p.exited {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("SIGTERM %s: %w", p.name, err)
	}
	return p.wait()
}

// wait reaps a daemon that is expected to exit on its own.
func (p *proc) wait() error {
	select {
	case <-p.scanned:
	case <-time.After(drainTimeout):
		p.kill()
		return fmt.Errorf("%s did not drain within %v; stderr:\n%s", p.name, drainTimeout, p.errOutput())
	}
	p.exited = true
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("%s exit: %v; stderr:\n%s", p.name, err, p.errOutput())
	}
	return nil
}

// kill stops the daemon without a drain and reaps it. Idempotent.
func (p *proc) kill() {
	if p.exited {
		return
	}
	p.exited = true
	_ = p.cmd.Process.Kill() // the child may already be gone; Wait reaps either way
	<-p.scanned
	_ = p.cmd.Wait()
}

// cpu returns the exited daemon's CPU seconds, user plus system.
func (p *proc) cpu() (float64, error) {
	st := p.cmd.ProcessState
	if st == nil {
		return 0, errors.New(p.name + " has not exited")
	}
	return (st.UserTime() + st.SystemTime()).Seconds(), nil
}

// peakRSS returns the running daemon's peak resident set in MiB.
func (p *proc) peakRSS() (float64, error) {
	v, err := peakRSS(p.cmd.Process.Pid)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	return v, nil
}

// peakRSS reads a live process's resident high-water mark (VmHWM) in
// MiB. The Maxrss a child's rusage reports at exit cannot be used: Linux
// carries the parent's high-water mark across the exec that starts the
// child, so every daemon would read at least this generator's own peak,
// which holds all the pre-encoded bodies.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM for pid %d", pid)
}

// procs is the set of daemons one setup launched.
type procs []*proc

// killAll stops every daemon still running; used on failure paths.
func (ps procs) killAll() {
	for _, p := range ps {
		p.kill()
	}
}

// peakRSS sums the peak resident sets of the running daemons.
func (ps procs) peakRSS() (float64, error) {
	var sum float64
	for _, p := range ps {
		v, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// cpu sums the CPU seconds of the exited daemons.
func (ps procs) cpu() (float64, error) {
	var sum float64
	for _, p := range ps {
		v, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
