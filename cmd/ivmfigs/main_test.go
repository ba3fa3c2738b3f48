package main

import (
	"strings"
	"testing"
)

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
