package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs ivmtriad when a test re-executes the binary with IVMTRIAD_ARGS.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IVMTRIAD_ARGS"); ok {
		os.Args = append([]string{"ivmtriad"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestValidateTriadFlags(t *testing.T) {
	for _, c := range []struct{ n, maxInc int }{{1024, 16}, {1, 1}, {64, 3}} {
		if err := validateTriadFlags(c.n, c.maxInc); err != nil {
			t.Errorf("-n %d -maxinc %d rejected: %v", c.n, c.maxInc, err)
		}
	}
	for _, c := range []struct {
		n, maxInc int
		want      string
	}{
		{0, 16, "-n wants"},
		{-1, 16, "-n wants"},
		{1024, 0, "-maxinc wants"},
		{1024, -3, "-maxinc wants"},
	} {
		err := validateTriadFlags(c.n, c.maxInc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-n %d -maxinc %d: error %v, want one naming %q", c.n, c.maxInc, err, c.want)
		}
	}
}

// A vector length or increment range that leaves nothing to simulate
// is a usage error naming the flag: exit 2, not a panic from
// the workload builder ("panic:" or a "goroutine N [" header).
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, c := range [][2]string{{"-n 0", "-n"}, {"-maxinc 0", "-maxinc"}} {
		args, flag := c[0], c[1]
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0])
		cmd.Env, cmd.Stderr = append(os.Environ(), "IVMTRIAD_ARGS="+args), &stderr
		_ = cmd.Run() // the exit code is checked below
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), flag+" wants") ||
			regexp.MustCompile(`(?m)^panic:|goroutine [0-9]+ \[`).Match(stderr.Bytes()) {
			t.Errorf("ivmtriad %s exited %d; want 2 and a usage error naming %s:\n%s", args, code, flag, &stderr)
		}
	}
}
