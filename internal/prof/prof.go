// Package prof wires Go's runtime profilers into the CLI binaries: the
// -cpuprofile, -memprofile and -mutexprofile flags of fadewich-sim,
// fadewich-eval and fadewich-serve funnel through Start, which arms the
// requested profilers and returns one stop function that flushes every
// profile file. The outputs are standard pprof format, ready for
// `go tool pprof`; docs/PERFORMANCE.md shows the invocations.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags names the profile output files; an empty path disables that
// profiler. Fields map one-to-one onto the CLI flags.
type Flags struct {
	// CPU receives a CPU profile covering Start to stop.
	CPU string
	// Mem receives an allocation (heap) profile snapshotted at stop,
	// after a forced GC so live objects are accurate.
	Mem string
	// Mutex receives a contention profile covering Start to stop; Start
	// arms runtime mutex sampling (rate 1: every contended acquisition)
	// and stop restores it.
	Mutex string
}

// Start arms the requested profilers. The returned stop function writes
// and closes every armed profile and must be called exactly once, on
// every exit path that should produce profiles (os.Exit skips deferred
// calls). Start fails cleanly: on error nothing stays armed and no
// partial files are left behind.
func Start(f Flags) (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPU != "" {
		cpuFile, err = os.Create(f.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			os.Remove(f.CPU)
			return nil, fmt.Errorf("prof: cpu profile: %w", err)
		}
	}
	if f.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		var firstErr error
		record := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			record(cpuFile.Close())
		}
		if f.Mutex != "" {
			record(writeProfile("mutex", f.Mutex))
			runtime.SetMutexProfileFraction(0)
		}
		if f.Mem != "" {
			runtime.GC() // flush dead objects so the heap profile shows live data
			record(writeProfile("allocs", f.Mem))
		}
		if firstErr != nil {
			return fmt.Errorf("prof: %w", firstErr)
		}
		return nil
	}, nil
}

// writeProfile dumps one named runtime profile to path.
func writeProfile(name, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(out, 0); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
