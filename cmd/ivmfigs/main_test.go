package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs ivmfigs when a test re-executes the binary with IVMFIGS_ARGS.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IVMFIGS_ARGS"); ok {
		os.Args = append([]string{"ivmfigs"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestValidateFigsFlags(t *testing.T) {
	for _, clocks := range []int64{34, 1, 0} {
		if err := validateFigsFlags(clocks); err != nil {
			t.Errorf("-clocks %d rejected: %v", clocks, err)
		}
	}
	for _, clocks := range []int64{-1, -5} {
		err := validateFigsFlags(clocks)
		if err == nil || !strings.Contains(err.Error(), "-clocks wants") {
			t.Errorf("-clocks %d: error %v, want one naming -clocks", clocks, err)
		}
	}
}

// A negative timeline width is a usage error naming the flag:
// exit 2, not a panic from the timeline recorder ("panic:" or a
// "goroutine N [" header).
func TestBadFlagsAreUsageErrors(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env, cmd.Stderr = append(os.Environ(), "IVMFIGS_ARGS=-clocks -1"), &stderr
	_ = cmd.Run() // the exit code is checked below
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), "-clocks wants") ||
		regexp.MustCompile(`(?m)^panic:|goroutine [0-9]+ \[`).Match(stderr.Bytes()) {
		t.Errorf("ivmfigs -clocks -1 exited %d; want 2 and a usage error naming -clocks:\n%s", code, &stderr)
	}
}
