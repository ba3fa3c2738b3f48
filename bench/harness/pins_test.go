package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"ivm/internal/sweep"
)

// TestPinsMatchReferencePaths recomputes the pinned digests without
// the engine's fast paths: the batch prefix on the scalar oracle, and
// the quick census on the sequential cold sweeps.
func TestPinsMatchReferencePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every pinned placement on the reference paths")
	}
	for seed, want := range pins.Batches {
		var n uint64
		for _, c := range seed {
			n = 10*n + uint64(c-'0')
		}
		d := newDigest()
		for i := 0; i < pinBatches; i++ {
			specs, err := toSpecs(Batch(n, i))
			if err != nil {
				t.Fatal(err)
			}
			answers, err := oracle(specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range answers {
				d.add(v)
			}
		}
		if got := d.sum(); got != want {
			t.Errorf("seed %s: oracle batch digest %s, pinned %s", seed, got, want)
		}
	}
	h := sha256.New()
	for _, g := range censusPairs {
		io.WriteString(h, sweep.Table(sweep.Grid(g[0], g[1])))
	}
	for _, g := range censusSections {
		io.WriteString(h, sweep.SectionTable(sweep.SectionGrid(g[0], g[1], g[2])))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pins.CensusQuick {
		t.Errorf("sequential quick census digest %s, pinned %s", got, pins.CensusQuick)
	}
}
