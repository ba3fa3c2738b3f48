// Package lockstep is an independent, minimal implementation of the
// paper's two-stream dynamics (s = m, one stream per CPU, fixed
// priority): two equally spaced streams step through bank space, a
// granted bank stays busy for n_c clocks, the blocked stream retries.
//
// It deliberately shares no code with internal/memsys — different state
// representation (absolute busy-until clocks instead of countdowns),
// different arbitration structure, different cycle detection — so the
// two simulators can serve as oracles for each other. The test suite
// checks them bank-for-bank over full parameter grids; a bug would have
// to be implemented twice, in different shapes, to slip through.
package lockstep

import "fmt"

// Result is the exact cyclic steady state of the pair.
type Result struct {
	Lead    int64 // clocks before the cycle is entered
	Period  int64
	Grants1 int64 // grants of stream 1 within one period
	Grants2 int64
	// Delays within one period (all bank-busy or simultaneous losses).
	Delays1, Delays2 int64
}

// state is everything that determines the future: both streams' next
// banks and every bank's remaining busy time.
type state struct {
	p1, p2 int
	busy   string
}

// Run simulates the pair until its state recurs. Stream 1 has priority
// on simultaneous requests to the same idle bank. maxClocks bounds the
// search (the state space is finite, so it is a safety net only).
func Run(m, nc, b1, d1, b2, d2 int, maxClocks int64) (Result, error) {
	if m <= 0 || nc <= 0 {
		panic(fmt.Sprintf("lockstep: invalid m=%d nc=%d", m, nc))
	}
	mod := func(x int) int { return ((x % m) + m) % m }
	p1, p2 := mod(b1), mod(b2)
	d1, d2 = mod(d1), mod(d2)

	// busyUntil[b] is the first clock at which bank b is free again.
	busyUntil := make([]int64, m)

	type seenAt struct {
		clock              int64
		g1, g2, del1, del2 int64
	}
	seen := make(map[state]seenAt)

	var g1, g2, del1, del2 int64
	for t := int64(0); t <= maxClocks; t++ {
		key := state{p1: p1, p2: p2, busy: busyString(busyUntil, t, nc)}
		if prev, ok := seen[key]; ok {
			return Result{
				Lead:    prev.clock,
				Period:  t - prev.clock,
				Grants1: g1 - prev.g1,
				Grants2: g2 - prev.g2,
				Delays1: del1 - prev.del1,
				Delays2: del2 - prev.del2,
			}, nil
		}
		seen[key] = seenAt{clock: t, g1: g1, g2: g2, del1: del1, del2: del2}

		// Stream 1 first (fixed priority).
		granted1 := false
		if busyUntil[p1] <= t {
			busyUntil[p1] = t + int64(nc)
			granted1 = true
		}
		if granted1 {
			g1++
		} else {
			del1++
		}
		// Stream 2: its bank may have just been taken by stream 1.
		if busyUntil[p2] <= t {
			busyUntil[p2] = t + int64(nc)
			g2++
			p2 = mod(p2 + d2)
		} else {
			del2++
		}
		if granted1 {
			p1 = mod(p1 + d1)
		}
	}
	return Result{}, fmt.Errorf("lockstep: no recurrence within %d clocks", maxClocks)
}

// busyString encodes the remaining busy times (0..nc) as bytes.
func busyString(busyUntil []int64, t int64, nc int) string {
	buf := make([]byte, len(busyUntil))
	for i, bu := range busyUntil {
		rem := bu - t
		if rem < 0 {
			rem = 0
		}
		if rem > int64(nc) {
			panic("lockstep: busy time exceeds nc")
		}
		buf[i] = byte('0' + rem)
	}
	return string(buf)
}
