package main

import (
	"strings"
	"testing"
)

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
