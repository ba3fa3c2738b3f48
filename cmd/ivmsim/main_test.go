package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate the digests with:
//
//	go test ./cmd/ivmsim -run TestRunGolden -update
var update = flag.Bool("update", false, "rewrite the ivmsim golden digests")

// TestRunGolden pins ivmsim's stdout and its -csv-out, -metrics-out,
// -trace-out and -phase-csv files byte for byte, on the Fig. 3 barrier
// and on EXPERIMENTS.md's sectioned 6-stream INC=4 run. The goldens are
// SHA-256 digests in sha256sum format: rerun the command with the same
// file names and `sha256sum -c testdata/NAME.sha256` checks them.
func TestRunGolden(t *testing.T) {
	outputs := []string{"stdout.txt", "run.csv", "metrics.json", "trace.json", "phase.csv"}
	cases := []struct {
		name string
		args []string
	}{
		{"fig3", []string{"-m", "13", "-nc", "6"}},
		{"inc4", []string{"-m", "16", "-s", "4", "-nc", "4", "-clocks", "2048",
			"-streams", "0:4:0,1:4:0,2:4:0,0:1:1,4:1:1,8:1:1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append(c.args, "-strip", "-phase-hist", "-stats",
				"-csv-out", filepath.Join(dir, "run.csv"),
				"-metrics-out", filepath.Join(dir, "metrics.json"),
				"-trace-out", filepath.Join(dir, "trace.json"),
				"-phase-csv", filepath.Join(dir, "phase.csv"))
			var stdout bytes.Buffer
			if err := run(args, &stdout); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "stdout.txt"), stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			var sums strings.Builder
			for _, name := range outputs {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(b), name)
			}
			path := filepath.Join("testdata", c.name+".sha256")
			if *update {
				if err := os.WriteFile(path, []byte(sums.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotLines := strings.Split(sums.String(), "\n")
			for i, w := range strings.Split(string(want), "\n") {
				if gotLines[i] != w {
					t.Errorf("%s: got digest line %q, golden %q", c.name, gotLines[i], w)
				}
			}
		})
	}
}

// TestFig10ConflictCounts runs EXPERIMENTS.md's INC=4 and INC=5
// -csv-out commands and counts conflict kinds as its awk command does:
// each reproduces the Fig. 10c–e table's bank/simultaneous/section row.
func TestFig10ConflictCounts(t *testing.T) {
	for _, c := range []struct {
		inc                         string
		bank, simultaneous, section int
	}{
		{"4", 4609, 1535, 1},
		{"5", 5614, 19, 529},
	} {
		path := filepath.Join(t.TempDir(), "inc"+c.inc+".csv")
		streams := strings.ReplaceAll("0:INC:0,1:INC:0,2:INC:0,0:1:1,4:1:1,8:1:1", "INC", c.inc)
		if err := run([]string{"-m", "16", "-s", "4", "-nc", "4", "-clocks", "2048",
			"-streams", streams, "-csv-out", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, row := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")[1:] {
			if kind := strings.Split(row, ",")[5]; kind != "grant" {
				n[kind]++
			}
		}
		if n["bank"] != c.bank || n["simultaneous"] != c.simultaneous || n["section"] != c.section {
			t.Errorf("INC=%s conflict counts %d %d %d, EXPERIMENTS.md says %d %d %d", c.inc,
				n["bank"], n["simultaneous"], n["section"], c.bank, c.simultaneous, c.section)
		}
	}
}

func TestRunRejectsNegativeClocks(t *testing.T) {
	for _, args := range [][]string{
		{"-clocks", "-5"},
		{"-statsclocks", "-1", "-stats"},
	} {
		var stdout bytes.Buffer
		err := run(args, &stdout)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run %v: error %v, want one naming %s", args, err, args[0])
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v wrote %q before failing", args, stdout.String())
		}
	}
}

func TestParseStreams(t *testing.T) {
	specs, err := parseStreams("0:1,3:7:1", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("len = %d", len(specs))
	}
	if specs[0].Start != 0 || specs[0].Distance != 1 || specs[0].CPU != 0 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if specs[1].Start != 3 || specs[1].Distance != 7 || specs[1].CPU != 1 {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
}

func TestParseStreamsDefaultsCPURoundRobin(t *testing.T) {
	specs, err := parseStreams("0:1,1:1,2:1", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].CPU != 0 || specs[1].CPU != 1 || specs[2].CPU != 0 {
		t.Fatalf("CPUs = %d,%d,%d", specs[0].CPU, specs[1].CPU, specs[2].CPU)
	}
}

// TestParseStreamsZeroCPUsIsOne: memsys treats 0 CPUs as 1, so every
// stream defaults to CPU 0 and an explicit CPU 0 is in range.
func TestParseStreamsZeroCPUsIsOne(t *testing.T) {
	specs, err := parseStreams("0:1,1:1,2:1:0", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if sp.CPU != 0 {
			t.Errorf("stream %d on CPU %d, want 0", i+1, sp.CPU)
		}
	}
	if _, err := parseStreams("0:1:1", 16, 0); err == nil {
		t.Error("CPU 1 accepted with one CPU")
	}
}

func TestParseStreamsReducesModuloM(t *testing.T) {
	for _, c := range []struct {
		in          string
		start, dist int
	}{
		{"17:18", 1, 2},
		{"-3:-1", 13, 15},
	} {
		specs, err := parseStreams(c.in, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if specs[0].Start != c.start || specs[0].Distance != c.dist {
			t.Errorf("parseStreams(%q) = %+v, want start %d distance %d", c.in, specs[0], c.start, c.dist)
		}
	}
}

func TestParseStreamsErrors(t *testing.T) {
	cases := []string{
		"",        // no fields
		"1",       // missing distance
		"a:1",     // bad start
		"1:b",     // bad distance
		"1:2:x",   // bad cpu
		"1:2:5",   // cpu out of range
		"1:2:0:9", // too many fields
		"1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1", // too many streams
	}
	for _, c := range cases {
		if _, err := parseStreams(c, 16, 2); err == nil {
			t.Errorf("parseStreams(%q): expected error", c)
		}
	}
}
