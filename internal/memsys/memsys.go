// Package memsys is a cycle-accurate simulator of the interleaved
// memory system described in Section II of Oed & Lange (1985):
//
//   - m banks; an address i lives in bank j = i mod m (other mappings,
//     e.g. skewing schemes, can be plugged in via BankMapper);
//   - a bank is busy ("active") for n_c clock periods once a request is
//     granted;
//   - the memory is reached through p ports, each able to issue one
//     request per clock; a blocked request — and everything queued
//     behind it in that port — is delayed one clock and retried
//     (dynamic conflict resolution);
//   - the banks are divided into s | m sections; each CPU owns exactly
//     one access path into each section, and a granted request occupies
//     that path for one clock.
//
// Three conflict classes are distinguished, exactly as in the paper:
//
//  1. bank conflict — the requested bank is still active;
//  2. simultaneous bank conflict — two or more ports using *different*
//     access paths (i.e. of different CPUs) request the same inactive
//     bank in the same clock; a priority rule picks the winner;
//  3. section conflict — two or more ports of the *same* CPU request
//     inactive banks within the same section and would need the same
//     access path; a priority rule picks the winner.
package memsys

import "fmt"

// SectionMapping selects how banks are distributed over sections.
type SectionMapping int

const (
	// CyclicSections distributes banks cyclically: section = bank mod s.
	// This is the paper's (and the Cray X-MP's) arrangement.
	CyclicSections SectionMapping = iota
	// ConsecutiveSections combines m/s consecutive banks into a section
	// (section = bank / (m/s)), the arrangement Cheung & Smith propose
	// to prevent linked conflicts (Fig. 9).
	ConsecutiveSections
)

// String names the mapping for tables and flag output.
func (sm SectionMapping) String() string {
	switch sm {
	case CyclicSections:
		return "cyclic"
	case ConsecutiveSections:
		return "consecutive"
	default:
		return fmt.Sprintf("SectionMapping(%d)", int(sm))
	}
}

// PriorityRule selects how simultaneous and section conflicts are
// arbitrated among ports.
type PriorityRule int

const (
	// FixedPriority always prefers the lower port index (Fig. 8a).
	FixedPriority PriorityRule = iota
	// CyclicPriority rotates the highest-priority port by one position
	// every clock period, the rule that resolves linked conflicts
	// (Fig. 8b).
	CyclicPriority
	// RoundRobinPerCPU rotates the highest-priority CPU group by one
	// position every clock period; within a group, ports arbitrate in ID
	// order. With one port per CPU it coincides with CyclicPriority, and
	// with one CPU it coincides with FixedPriority.
	RoundRobinPerCPU
)

// String names the rule for tables and flag output.
func (pr PriorityRule) String() string {
	switch pr {
	case FixedPriority:
		return "fixed"
	case CyclicPriority:
		return "cyclic"
	case RoundRobinPerCPU:
		return "rr-cpu"
	default:
		return fmt.Sprintf("PriorityRule(%d)", int(pr))
	}
}

// ParsePriority parses a priority-rule name as produced by
// PriorityRule.String — the shared vocabulary of every flag and wire
// surface ("fixed", "cyclic", "rr-cpu").
func ParsePriority(name string) (PriorityRule, error) {
	switch name {
	case "fixed":
		return FixedPriority, nil
	case "cyclic":
		return CyclicPriority, nil
	case "rr-cpu":
		return RoundRobinPerCPU, nil
	default:
		return 0, fmt.Errorf("memsys: unknown priority rule %q (want fixed, cyclic or rr-cpu)", name)
	}
}

// ParseMapping parses a section-mapping name as produced by
// SectionMapping.String ("cyclic", "consecutive").
func ParseMapping(name string) (SectionMapping, error) {
	switch name {
	case "cyclic":
		return CyclicSections, nil
	case "consecutive":
		return ConsecutiveSections, nil
	default:
		return 0, fmt.Errorf("memsys: unknown section mapping %q (want cyclic or consecutive)", name)
	}
}

// ConflictKind classifies why a request was delayed in a given clock.
type ConflictKind int

const (
	// NoConflict: the request was granted without delay.
	NoConflict ConflictKind = iota
	// BankConflict: access to an active bank was requested.
	BankConflict
	// SimultaneousConflict: the same inactive bank was requested by a
	// higher-priority port of another CPU in the same clock.
	SimultaneousConflict
	// SectionConflict: the CPU's single access path into the bank's
	// section was already taken this clock.
	SectionConflict
)

// String names the conflict class, matching the paper's terms.
func (k ConflictKind) String() string {
	switch k {
	case NoConflict:
		return "none"
	case BankConflict:
		return "bank"
	case SimultaneousConflict:
		return "simultaneous"
	case SectionConflict:
		return "section"
	default:
		return fmt.Sprintf("ConflictKind(%d)", int(k))
	}
}

// BankMapper maps a word address to a bank. The default is the paper's
// j = i mod m; package skew provides skewing schemes.
type BankMapper interface {
	Bank(addr int64) int
	// Banks returns m, the number of banks the mapper targets.
	Banks() int
}

// ModuloMapper is the standard m-way interleaving j = i mod m.
type ModuloMapper struct{ M int }

// Bank implements BankMapper.
func (mm ModuloMapper) Bank(addr int64) int {
	b := addr % int64(mm.M)
	if b < 0 {
		b += int64(mm.M)
	}
	return int(b)
}

// Banks implements BankMapper.
func (mm ModuloMapper) Banks() int { return mm.M }

// Source produces the ordered access requests of one port. The
// simulator calls Pending at most once per clock; a Source must keep
// reporting the same request until Grant is called (a delayed request
// stays pending — dynamic conflict resolution).
type Source interface {
	// Pending returns the word address of the port's current request,
	// or ok = false if the port has nothing to ask this clock (either
	// exhausted, or — for store ports — waiting for data).
	Pending(clock int64) (addr int64, ok bool)
	// Grant tells the source its pending request was serviced at clock;
	// the source advances to its next element.
	Grant(clock int64)
	// Done reports that the source will never issue again.
	Done() bool
}

// Counters aggregates what happened to one port.
type Counters struct {
	Grants       int64 // requests serviced
	Bank         int64 // clocks delayed by bank conflicts
	Simultaneous int64 // clocks delayed by simultaneous bank conflicts
	Section      int64 // clocks delayed by section conflicts
	Idle         int64 // clocks with no pending request
}

// Delays returns the total number of delayed clocks.
func (c Counters) Delays() int64 { return c.Bank + c.Simultaneous + c.Section }

// Port is one access port into the memory system.
type Port struct {
	ID    int // index within the System, also the fixed priority
	CPU   int // which CPU's interconnection network the port belongs to
	Label string
	Src   Source
	Count Counters
}

// Event notifies listeners (e.g. the timeline recorder) of per-clock
// outcomes.
type Event struct {
	Clock   int64
	Port    *Port
	Bank    int
	Kind    ConflictKind // NoConflict for a grant
	Blocker *Port        // the port that caused a delay; nil for grants
}

// Listener receives one Event per port per clock in which the port had
// a pending request.
type Listener interface {
	Observe(Event)
}

// Config describes a memory system.
type Config struct {
	Banks    int            // m > 0
	Sections int            // s | m; 0 means s = m (a path per bank)
	BankBusy int            // n_c >= 1
	CPUs     int            // number of path groups; 0 means 1
	Mapping  SectionMapping // bank -> section distribution
	Priority PriorityRule   // arbitration among simultaneous requests
}

// Validate checks the structural assumptions (s | m, positive sizes).
func (c Config) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("memsys: banks must be positive, got %d", c.Banks)
	}
	if c.BankBusy < 1 {
		return fmt.Errorf("memsys: bank busy time must be >= 1, got %d", c.BankBusy)
	}
	s := c.Sections
	if s == 0 {
		s = c.Banks
	}
	if s < 1 || c.Banks%s != 0 {
		return fmt.Errorf("memsys: sections %d must divide banks %d", c.Sections, c.Banks)
	}
	if c.CPUs < 0 {
		return fmt.Errorf("memsys: negative CPU count %d", c.CPUs)
	}
	switch c.Mapping {
	case CyclicSections, ConsecutiveSections:
	default:
		return fmt.Errorf("memsys: unknown section mapping %d", int(c.Mapping))
	}
	switch c.Priority {
	case FixedPriority, CyclicPriority, RoundRobinPerCPU:
	default:
		return fmt.Errorf("memsys: unknown priority rule %d", int(c.Priority))
	}
	return nil
}

func (c Config) sections() int {
	if c.Sections == 0 {
		return c.Banks
	}
	return c.Sections
}

func (c Config) cpus() int {
	if c.CPUs == 0 {
		return 1
	}
	return c.CPUs
}

// System is a running memory system. Create with New, attach ports with
// AddPort, then drive it with Step/Run/FindCycle.
//
// Concurrency: a System is NOT safe for concurrent use. Every method —
// including the read-only accessors, which return internal slices and
// unsynchronised fields — must be called from the goroutine that owns
// the system. Parallel harnesses (internal/sweep's engine) give each
// worker goroutine a private System and reuse it across simulations
// via Reset; nothing in this package shares mutable state between
// System values, so any number of systems may run on different
// goroutines at once.
type System struct {
	cfg    Config
	mapper BankMapper
	ports  []*Port

	busy  []int   // per bank: remaining busy clocks (0 = idle)
	owner []*Port // per bank: port currently being serviced (busy > 0)
	secOf []int32 // per bank: its section under the configured mapping

	// Per-clock scratch, stamped with the clock to avoid clearing.
	bankStamp  []int64 // bank granted this clock
	bankWinner []*Port
	pathStamp  [][]int64 // [cpu][section] granted this clock
	pathWinner [][]*Port

	clock    int64
	rr       int     // rotating priority pointer (CyclicPriority, RoundRobinPerCPU)
	order    []*Port // arbitration-order scratch, reused across clocks
	listener Listener

	// Packed-search state (see kernel.go), allocated by the first
	// packed FindCycle and live only inside a packed search, which
	// loads it from busy and owner and writes it back: the busy set as
	// one bit per bank, the absolute clock at which each busy bank
	// frees, each busy bank's owner as a port index, the CPU of each
	// bank's winner in the clock bankStamp names, the expiry event
	// wheel (a power of two of at least n_c+1 slots, indexed by the
	// clock masked to the wheel length) and the wheel's drain cursor.
	kernel    Kernel
	words     []uint64
	expiry    []int64
	ownerID   []int32
	winnerCPU []int32
	wheel     [][]int32
	expired   int64
	states    recurrenceTable // FindCycle's visited states, kept across Reset
	pending   pendingBanks    // FindCycle's per-port pending banks, kept across Reset

	// The ports AddStreams built without a listener, in the order it
	// built them, and how many of them are attached since the last
	// Reset; the next AddStreams re-arms the rest in order.
	streamPorts []*streamPort
	rearmed     int
}

// New creates a memory system with the default modulo bank mapping.
// It panics on an invalid configuration (programming error).
func New(cfg Config) *System {
	return NewWithMapper(cfg, ModuloMapper{M: cfg.Banks})
}

// NewWithMapper creates a memory system with a custom address-to-bank
// mapping (e.g. a skewing scheme).
func NewWithMapper(cfg Config, mapper BankMapper) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mapper.Banks() != cfg.Banks {
		panic(fmt.Sprintf("memsys: mapper targets %d banks, config has %d", mapper.Banks(), cfg.Banks))
	}
	s := &System{
		cfg:    cfg,
		mapper: mapper,
		busy:   make([]int, cfg.Banks),
		owner:  make([]*Port, cfg.Banks),
		secOf:  make([]int32, cfg.Banks),

		bankStamp:  make([]int64, cfg.Banks),
		bankWinner: make([]*Port, cfg.Banks),
	}
	for i := range s.bankStamp {
		s.bankStamp[i] = -1
	}
	nc := cfg.cpus()
	ns := cfg.sections()
	for b := range s.secOf {
		if cfg.Mapping == ConsecutiveSections {
			s.secOf[b] = int32(b / (cfg.Banks / ns))
		} else {
			s.secOf[b] = int32(b % ns)
		}
	}
	s.pathStamp = make([][]int64, nc)
	s.pathWinner = make([][]*Port, nc)
	for c := 0; c < nc; c++ {
		s.pathStamp[c] = make([]int64, ns)
		for k := range s.pathStamp[c] {
			s.pathStamp[c][k] = -1
		}
		s.pathWinner[c] = make([]*Port, ns)
	}
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Reset returns the system to an empty initial state while keeping its
// allocations, so one System can be reused for many simulations (the
// parallel sweep engine holds one per worker): all ports are detached,
// every bank is freed and the priority rotation returns to zero.
// The configuration, bank mapper, kernel and listener are kept. The
// clock is NOT rewound — the per-clock grant stamps stay valid
// precisely because the clock only moves forward, which is what makes
// Reset O(m) instead of O(m·s) — so clock-derived quantities of a
// later run (FindCycle leads, listener event clocks) are relative to
// the clock at reuse.
//
// The ports AddStreams built are kept too: the next AddStreams re-arms
// them for its streams instead of allocating (see AddStreams), so a
// Port taken from Ports before Reset may describe a different stream
// after it. Ports attached with AddPort, and ports a listener could
// have seen (see SetListener), are never re-armed. Rearm does Reset
// and AddStreams in one pass when the new streams keep the attached
// ports' CPUs.
func (s *System) Reset() {
	s.ports = s.ports[:0]
	s.rearmed = 0
	s.clearBanks()
}

// clearBanks frees every bank and returns the priority rotation to
// zero.
func (s *System) clearBanks() {
	for b := range s.busy {
		s.busy[b] = 0
		s.owner[b] = nil
	}
	s.rr = 0
}

// Rearm moves the attached ports onto new streams in place: port i
// takes start starts[i] and distance distances[i], keeps its CPU and
// label, and its counters are zeroed; every bank is freed and the
// priority rotation returns to zero. The system is then exactly as
// Reset followed by AddStreams with the same CPUs and labels would
// leave it, without a StreamSpec or a label comparison per port, which
// is how a sweep worker moves one spec from placement to placement.
//
// Rearm refuses, returning false and changing nothing, wherever
// AddStreams would not re-arm: while a listener is attached, when an
// attached port came from AddPort or was built while a listener was
// attached, or when the number of ports or a port's CPU differs from
// cpus. starts and distances must be as long as cpus.
func (s *System) Rearm(cpus, starts, distances []int) bool {
	if s.listener != nil || len(cpus) != len(s.ports) || s.rearmed != len(s.ports) {
		return false
	}
	for i, p := range s.ports {
		if p != &s.streamPorts[i].Port || p.CPU != cpus[i] {
			return false
		}
	}
	for i, p := range s.streamPorts[:len(cpus)] {
		p.src = StridedSource{Addr: int64(starts[i]), Stride: int64(distances[i]), Remaining: -1}
		p.Count = Counters{}
	}
	s.clearBanks()
	return true
}

// SetListener installs an event listener (nil to remove). Installing
// one retires the ports AddStreams built so far from re-arming, since
// the listener may keep them.
func (s *System) SetListener(l Listener) {
	s.listener = l
	if l != nil {
		s.streamPorts, s.rearmed = nil, 0
	}
}

// AddPort attaches a source as a new port on the given CPU and returns
// the port. Ports arbitrate in ID order under FixedPriority.
func (s *System) AddPort(cpu int, label string, src Source) *Port {
	p := &Port{CPU: cpu, Label: label, Src: src}
	s.attach(p)
	return p
}

// attach appends p as the next port, numbering it by position.
func (s *System) attach(p *Port) {
	if p.CPU < 0 || p.CPU >= s.cfg.cpus() {
		panic(fmt.Sprintf("memsys: CPU %d out of range [0,%d)", p.CPU, s.cfg.cpus()))
	}
	p.ID = len(s.ports)
	s.ports = append(s.ports, p)
}

// Ports returns the attached ports in ID order.
func (s *System) Ports() []*Port { return s.ports }

// Clock returns the number of clock periods simulated so far.
func (s *System) Clock() int64 { return s.clock }

// Section returns the section of a bank under the configured mapping.
func (s *System) Section(bank int) int { return int(s.secOf[bank]) }

// checkedBank maps a request's address to its bank through the mapper
// and panics when the mapper leaves [0, m) (a programming error).
func (s *System) checkedBank(addr int64) int {
	bank := s.mapper.Bank(addr)
	if bank < 0 || bank >= s.cfg.Banks {
		panic(fmt.Sprintf("memsys: mapper produced bank %d out of [0,%d)", bank, s.cfg.Banks))
	}
	return bank
}

// Step advances the simulation by one clock period: all ports holding a
// pending request compete in priority order; winners occupy their bank
// for n_c clocks and their path for this clock; losers are delayed and
// classified. It returns the number of requests granted this clock.
func (s *System) Step() int {
	t := s.clock
	order := s.arbitrationOrder()
	granted := 0

	for _, p := range order {
		if p.Src == nil || p.Src.Done() {
			continue
		}
		addr, ok := p.Src.Pending(t)
		if !ok {
			p.Count.Idle++
			continue
		}
		bank := s.checkedBank(addr)
		sec := s.secOf[bank]

		var kind ConflictKind
		var blocker *Port
		switch {
		case s.bankStamp[bank] == t:
			// The same bank was granted earlier this clock, i.e. it was
			// inactive when both ports requested it: a simultaneous bank
			// conflict (different CPUs) or a section conflict (same CPU,
			// same path). This case must precede the busy check because
			// the grant already marked the bank active.
			w := s.bankWinner[bank]
			if w.CPU != p.CPU {
				kind, blocker = SimultaneousConflict, w
			} else {
				// Same CPU means the same access path: a section conflict
				// by the paper's taxonomy (definition 3 subsumes the case
				// because only one path into the section exists per CPU).
				kind, blocker = SectionConflict, w
			}
		case s.busy[bank] > 0:
			kind, blocker = BankConflict, s.owner[bank]
		case s.pathStamp[p.CPU][sec] == t:
			kind, blocker = SectionConflict, s.pathWinner[p.CPU][sec]
		}

		if kind == NoConflict {
			s.busy[bank] = s.cfg.BankBusy
			s.owner[bank] = p
			s.bankStamp[bank] = t
			s.bankWinner[bank] = p
			s.pathStamp[p.CPU][sec] = t
			s.pathWinner[p.CPU][sec] = p
			p.Src.Grant(t)
			p.Count.Grants++
			granted++
			// The nil check is inlined so the detached path constructs
			// no Event and stays free of observability cost.
			if s.listener != nil {
				s.listener.Observe(Event{Clock: t, Port: p, Bank: bank, Kind: NoConflict})
			}
		} else {
			switch kind {
			case BankConflict:
				p.Count.Bank++
			case SimultaneousConflict:
				p.Count.Simultaneous++
			case SectionConflict:
				p.Count.Section++
			}
			if s.listener != nil {
				s.listener.Observe(Event{Clock: t, Port: p, Bank: bank, Kind: kind, Blocker: blocker})
			}
		}
	}

	for b := range s.busy {
		if s.busy[b] > 0 {
			s.busy[b]--
		}
	}
	s.advanceRotation()
	s.clock++
	return granted
}

// rotationModulus returns the period of the priority rotation: 1 under
// FixedPriority (the rotation is degenerate), the port count under
// CyclicPriority and the CPU count under RoundRobinPerCPU.
func (s *System) rotationModulus() int {
	switch s.cfg.Priority {
	case CyclicPriority:
		return len(s.ports)
	case RoundRobinPerCPU:
		return s.cfg.cpus()
	default:
		return 1
	}
}

// advanceRotation moves the rotating priority pointer forward by one
// clock period. A degenerate modulus pins rr at 0.
func (s *System) advanceRotation() {
	m := s.rotationModulus()
	if m <= 1 {
		s.rr = 0
		return
	}
	s.rr = (s.rr + 1) % m
}

// PriorityHolderAt returns the port (or, under RoundRobinPerCPU, the
// lowest-ID port of the CPU group) that holds the highest priority in
// the given clock period. The answer is derived from the live rotation
// pointer rr, offset by t relative to the current clock — NOT from t
// alone — so it stays correct after Reset, which rewinds the rotation
// to zero while the clock keeps advancing. Nil when no ports are
// attached.
func (s *System) PriorityHolderAt(t int64) *Port {
	if len(s.ports) == 0 {
		return nil
	}
	m := int64(s.rotationModulus())
	if m <= 1 {
		return s.ports[0]
	}
	h := int((((int64(s.rr) + t - s.clock) % m) + m) % m)
	if s.cfg.Priority == RoundRobinPerCPU {
		// The holder is a CPU group; report its first port. A group with
		// no ports defers to the next group in rotation order, mirroring
		// arbitrationOrder.
		for g := 0; g < int(m); g++ {
			cpu := (h + g) % int(m)
			for _, p := range s.ports {
				if p.CPU == cpu {
					return p
				}
			}
		}
	}
	return s.ports[h]
}

// arbitrationOrder returns the ports in this clock's priority order.
// The returned slice is scratch owned by the System, valid until the
// next call.
func (s *System) arbitrationOrder() []*Port {
	switch s.cfg.Priority {
	case CyclicPriority:
		if s.rr == 0 {
			return s.ports
		}
		n := len(s.ports)
		order := s.order[:0]
		for i := 0; i < n; i++ {
			order = append(order, s.ports[(s.rr+i)%n])
		}
		s.order = order
		return order
	case RoundRobinPerCPU:
		nc := s.cfg.cpus()
		if nc <= 1 {
			return s.ports
		}
		order := s.order[:0]
		for g := 0; g < nc; g++ {
			cpu := (s.rr + g) % nc
			for _, p := range s.ports {
				if p.CPU == cpu {
					order = append(order, p)
				}
			}
		}
		s.order = order
		return order
	default:
		return s.ports
	}
}

// Run advances the simulation by n clock periods and returns the total
// number of grants.
func (s *System) Run(n int64) int64 {
	var total int64
	for i := int64(0); i < n; i++ {
		total += int64(s.Step())
	}
	return total
}
