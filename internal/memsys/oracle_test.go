package memsys

import "testing"

// oracleRepeats is the k of checkCycleByRun: the periods the twin runs
// past the cycle's lead. A recurrence that is no period can repeat its
// counters for a while before it drifts: under a row skew with one
// stream on m ≤ 12 banks, 3 periods expose 12 of the 30 false cycles
// and 64 expose all of them.
const oracleRepeats = 64

// checkCycleByRun is the key-free cycle oracle. twin is a system built
// and run like the one whose search returned c, up to the clock that
// search started at. The oracle runs it on the scalar kernel for
// c.Lead + k·c.Length clocks and requires each port's grants and
// conflict counters over [Lead, Lead + k·Length) to equal exactly k
// times c's. No state key enters, so a key that misses part
// of the state cannot fool it, as it fools a comparison of two searches
// that build the same key.
func checkCycleByRun(t testing.TB, twin *System, c Cycle) {
	t.Helper()
	twin.SetKernel(KernelScalar)
	twin.Run(c.Lead)
	ports := twin.ports
	before := make([]Counters, len(ports))
	for i, p := range ports {
		before[i] = p.Count
	}
	const k = oracleRepeats
	twin.Run(k * c.Length)
	for i, p := range ports {
		b, a, per := before[i], p.Count, c.Conflicts[i]
		got := Counters{
			Grants:       a.Grants - b.Grants,
			Bank:         a.Bank - b.Bank,
			Simultaneous: a.Simultaneous - b.Simultaneous,
			Section:      a.Section - b.Section,
			Idle:         a.Idle - b.Idle,
		}
		want := Counters{
			Grants:       k * per.Grants,
			Bank:         k * per.Bank,
			Simultaneous: k * per.Simultaneous,
			Section:      k * per.Section,
			Idle:         k * per.Idle,
		}
		if got != want {
			t.Fatalf("port %d over clocks [%d, %d) of a twin run: counters %+v, want %d times the cycle's %+v",
				i, c.Lead, c.Lead+k*c.Length, got, k, per)
		}
	}
}
