// Package profile is the shared pprof/runtime-trace wiring of the
// CLIs: every command registers the same -cpuprofile, -memprofile and
// -trace flags through AddFlags and brackets its work with Start and
// the returned stop function. The produced files feed `go tool pprof`
// and `go tool trace`.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the profile outputs of one run; empty fields are off.
type Config struct {
	CPUFile   string // pprof CPU profile, written while running
	MemFile   string // pprof heap profile, written at stop
	TraceFile string // Go execution trace, written while running
}

// AddFlags registers the shared profiling flags on a flag set
// (typically flag.CommandLine) and returns the config they fill.
func AddFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.CPUFile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemFile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&c.TraceFile, "trace", "", "write a Go execution trace to this file")
	return c
}

// Start begins the configured profiling. The returned stop function
// must run once the measured work is done (defer it): it finishes the
// CPU profile and the execution trace and writes the heap profile.
// Stop is safe to call when nothing was enabled.
func (c *Config) Start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if c.CPUFile != "" {
		cpuF, err = os.Create(c.CPUFile)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			cpuF = nil
			cleanup()
			return nil, fmt.Errorf("profile: cpu: %w", err)
		}
	}
	if c.TraceFile != "" {
		traceF, err = os.Create(c.TraceFile)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("profile: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("profile: trace: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		cleanup()
		if c.MemFile != "" {
			f, err := os.Create(c.MemFile)
			if err != nil {
				return fmt.Errorf("profile: %w", err)
			}
			runtime.GC() // materialise up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("profile: heap: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
