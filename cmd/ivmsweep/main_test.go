package main

import (
	"strings"
	"testing"

	"ivm/internal/memsys"
)

func TestValidateSweepFlags(t *testing.T) {
	good := []sweepFlags{
		{},              // default pair sweep
		{secs: 4},       // section sweep
		{triples: true}, // triple grid
		{triples: true, census: true},
		{streams: 2},
		{streams: 4},
		{priority: memsys.CyclicPriority},
		{priority: memsys.RoundRobinPerCPU, secs: 4},
		{secs: 4, mapping: memsys.ConsecutiveSections},
		{secs: 4, mapping: memsys.ConsecutiveSections, priority: memsys.CyclicPriority},
	}
	for _, f := range good {
		if err := validateSweepFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	bad := []struct {
		f    sweepFlags
		want string
	}{
		{sweepFlags{streams: 1}, "-streams"},
		{sweepFlags{streams: -3}, "-streams"},
		{sweepFlags{census: true}, "-triple-census"},
		{sweepFlags{triples: true, secs: 4}, "pick one"},
		{sweepFlags{streams: 3, triples: true}, "pick one"},
		{sweepFlags{streams: 3, secs: 4}, "pick one"},
		{sweepFlags{mapping: memsys.ConsecutiveSections}, "-s"},
		{sweepFlags{priority: memsys.CyclicPriority, triples: true}, "pair and section families"},
		{sweepFlags{priority: memsys.RoundRobinPerCPU, streams: 3}, "pair and section families"},
	}
	for _, c := range bad {
		err := validateSweepFlags(c.f)
		if err == nil {
			t.Errorf("%+v accepted", c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q does not mention %q", c.f, err, c.want)
		}
	}
}

func TestParsePairSpec(t *testing.T) {
	d1, d2, b2, err := parsePairSpec("1:2:3")
	if err != nil || d1 != 1 || d2 != 2 || b2 != 3 {
		t.Fatalf("parsePairSpec(1:2:3) = %d,%d,%d,%v", d1, d2, b2, err)
	}
	if _, _, _, err := parsePairSpec("1"); err == nil {
		t.Fatal("single field accepted")
	}
	if _, _, _, err := parsePairSpec("1:x"); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}
