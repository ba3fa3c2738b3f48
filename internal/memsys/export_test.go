package memsys

// Test-only helpers the production route never calls: views of bank
// and source state, and a driver for finite sources.

// BankOwner returns the port currently being serviced by the bank, or
// nil if the bank is idle.
func (s *System) BankOwner(bank int) *Port {
	if s.busy[bank] == 0 {
		return nil
	}
	return s.owner[bank]
}

// RunUntilDone steps until every source is exhausted, or maxClocks
// elapse. It returns the number of clocks stepped and whether all
// sources finished.
func (s *System) RunUntilDone(maxClocks int64) (clocks int64, done bool) {
	for clocks = 0; clocks < maxClocks; clocks++ {
		if s.allDone() {
			return clocks, true
		}
		s.Step()
	}
	return clocks, s.allDone()
}

func (s *System) allDone() bool {
	for _, p := range s.ports {
		if p.Src != nil && !p.Src.Done() {
			return false
		}
	}
	return true
}
