package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs ivmablate when a test re-executes the binary with IVMABLATE_ARGS.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IVMABLATE_ARGS"); ok {
		os.Args = append([]string{"ivmablate"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestValidateAblateFlags(t *testing.T) {
	for _, c := range []struct{ n, maxInc int }{{512, 16}, {1, 1}, {64, 3}} {
		if err := validateAblateFlags(c.n, c.maxInc); err != nil {
			t.Errorf("-n %d -maxinc %d rejected: %v", c.n, c.maxInc, err)
		}
	}
	for _, c := range []struct {
		n, maxInc int
		want      string
	}{
		{0, 16, "-n wants"},
		{-1, 16, "-n wants"},
		{512, 0, "-maxinc wants"},
		{512, -3, "-maxinc wants"},
	} {
		err := validateAblateFlags(c.n, c.maxInc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-n %d -maxinc %d: error %v, want one naming %q", c.n, c.maxInc, err, c.want)
		}
	}
}

// A vector length that leaves the kernels study nothing to run is a
// usage error naming the flag: exit 2, not a panic from the
// workload builder ("panic:" or a "goroutine N [" header).
func TestBadFlagsAreUsageErrors(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env, cmd.Stderr = append(os.Environ(), "IVMABLATE_ARGS=-study kernels -n 0"), &stderr
	_ = cmd.Run() // the exit code is checked below
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), "-n wants") ||
		regexp.MustCompile(`(?m)^panic:|goroutine [0-9]+ \[`).Match(stderr.Bytes()) {
		t.Errorf("ivmablate -study kernels -n 0 exited %d; want 2 and a usage error naming -n:\n%s", code, &stderr)
	}
}

// The default run executes every study, including the policy campaign,
// which exits 1 on any mismatch between the cold, cached and warm paths.
func TestDefaultRunPasses(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IVMABLATE_ARGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ivmablate: %v\n%s", err, out)
	}
}
