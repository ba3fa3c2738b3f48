package profile

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestAddFlagsRegisters(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := AddFlags(fs)
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if *cfg != (Config{}) {
		t.Errorf("flags registered with non-empty defaults: %+v", *cfg)
	}
	if err := fs.Parse([]string{"-cpuprofile", "cpu.out"}); err != nil {
		t.Fatal(err)
	}
	if cfg.CPUFile != "cpu.out" {
		t.Errorf("parse did not populate config: %+v", *cfg)
	}
}

func TestStartProducesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CPUFile:   filepath.Join(dir, "cpu.out"),
		MemFile:   filepath.Join(dir, "mem.out"),
		TraceFile: filepath.Join(dir, "trace.out"),
	}
	stop, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Errorf("second stop errored: %v", err)
	}
	for _, path := range []string{cfg.CPUFile, cfg.MemFile, cfg.TraceFile} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing output %s: %v", path, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestStartNoopWhenDisabled(t *testing.T) {
	var cfg Config
	stop, err := cfg.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("noop stop errored: %v", err)
	}
}
