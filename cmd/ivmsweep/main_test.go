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
		f.m, f.nc = 16, 4 // a valid geometry: these cases vary the selectors
		if err := validateSweepFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	type badCase struct {
		f    sweepFlags
		want string
	}
	bad := []badCase{
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
	for i := range bad {
		bad[i].f.m, bad[i].f.nc = 16, 4
	}
	bad = append(bad,
		badCase{sweepFlags{m: 0, nc: 4}, "-m"},
		badCase{sweepFlags{m: -4, nc: 4}, "-m"},
		badCase{sweepFlags{m: 8, nc: 0}, "-nc"},
		badCase{sweepFlags{m: 8, nc: -1}, "-nc"},
		badCase{sweepFlags{m: 8, nc: 2, secs: 3}, "-s"},
		badCase{sweepFlags{m: 8, nc: 2, secs: -2}, "-s"},
	)
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
