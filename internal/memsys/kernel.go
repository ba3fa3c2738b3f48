package memsys

// The bit-packed bank-busy kernel: FindCycle's search on a packed copy
// of the bank-busy state. The busy set is one bit per bank in []uint64
// words, busy expiries sit in a small event wheel instead of a per-bank
// counter decremented every clock, and each visited state is recorded
// as a few fixed-width words. The packed state exists only inside a
// search: findCyclePacked loads it from the scalar counters on entry
// and writes it back before it returns, so Step, Run and the accessors
// have one body, the scalar one, on either kernel. Inside a search the
// bank owners and each clock's bank winners are int32 port indices and
// CPUs, not *Port, and no source is called: the write-back restores
// the owners and advances every source by the grants it received. The
// scalar search remains the reference implementation, the oracle the
// differential suite in kernel_diff_test.go holds this one to.
// docs/KERNEL.md derives the equivalence argument.

import (
	"fmt"
	"math/bits"
	"slices"
)

// Kernel selects how FindCycle searches for the cyclic state.
type Kernel int

const (
	// KernelScalar searches by stepping the reference per-bank
	// busy-counter loop and recording each state as a formatted string —
	// the oracle every other kernel is differentially tested against.
	KernelScalar Kernel = iota
	// KernelPacked searches on the bit-packed bank-busy state: busy bits
	// in []uint64 words, expiries in an event wheel, word state keys in
	// a recurrence table that later searches share. It finds the same
	// Cycle as KernelScalar. Step and Run are the scalar loop on either
	// kernel, and a search with a listener attached runs the scalar
	// search, so a listener sees the same events on both.
	KernelPacked
)

// String names the kernel for tables and flag output.
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelPacked:
		return "packed"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Kernel returns the kernel FindCycle searches on.
func (s *System) Kernel() Kernel { return s.kernel }

// PackedSupportsPriority reports whether the packed kernel implements a
// priority rule natively. All three rules share the generic rotation
// machinery (advanceRotation; the rr pointer is part of both kernels'
// cycle-state keys), so the answer is true for every known rule; the
// function gives callers that pick a kernel per priority rule a single
// authoritative predicate to ask, rather than assuming.
func PackedSupportsPriority(pr PriorityRule) bool {
	switch pr {
	case FixedPriority, CyclicPriority, RoundRobinPerCPU:
		return true
	default:
		return false
	}
}

// SetKernel selects how FindCycle searches. It may be called at any
// time, mid-run included: between searches the bank state is the
// scalar counters on either kernel.
func (s *System) SetKernel(k Kernel) { s.kernel = k }

// loadPacked starts a packed search: it builds the packed busy set from
// the scalar counters, a bank with b clocks left expiring at clock + b,
// records each busy bank's owner as a port index, and zeroes the
// counters, so while the search runs the packed state is the only
// record of the busy banks. The first search on a system allocates the
// packed state; later ones empty and refill it.
func (s *System) loadPacked() {
	if s.words == nil {
		m := s.cfg.Banks
		s.words = make([]uint64, (m+63)/64)
		s.expiry = make([]int64, m)
		ids := make([]int32, 2*m)
		s.ownerID, s.winnerCPU = ids[:m:m], ids[m:]
		// The smallest power of two above n_c: at least n_c+1 slots,
		// indexed by a mask. The slots start empty in one shared array
		// with room for a clock's grants to four ports, so a fresh
		// system does not allocate per slot; a fuller slot outgrows its
		// room by append.
		s.wheel = make([][]int32, 1<<bits.Len(uint(s.cfg.BankBusy)))
		const room = 4
		backing := make([]int32, room*len(s.wheel))
		for i := range s.wheel {
			s.wheel[i] = backing[i*room : i*room : (i+1)*room]
		}
	}
	clear(s.words)
	for i := range s.wheel {
		s.wheel[i] = s.wheel[i][:0]
	}
	s.expired = s.clock
	mask := int64(len(s.wheel) - 1)
	for b, left := range s.busy {
		if left == 0 {
			continue
		}
		s.words[b>>6] |= 1 << (uint(b) & 63)
		exp := s.clock + int64(left)
		s.expiry[b] = exp
		s.wheel[exp&mask] = append(s.wheel[exp&mask], int32(b))
		s.ownerID[b] = int32(s.owner[b].ID)
		s.busy[b] = 0
	}
}

// storePacked ends a packed search: it writes each live busy bit back
// into the scalar counters as the clocks it has left, with the bank's
// owner, and advances each port's source by the grants the search gave
// it, as that many Grant calls would have, so Step continues from the
// clock the search stopped at. FindCycle admits only infinite strided
// sources, whose Grant only moves Addr on by one stride, so the
// advance is exact.
func (s *System) storePacked(pb *pendingBanks) {
	for wi, word := range s.words {
		for word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if s.packedBusy(b) {
				s.busy[b] = int(s.expiry[b] - s.clock)
				s.owner[b] = s.ports[s.ownerID[b]]
			}
		}
	}
	for i, p := range s.ports {
		n := p.Count.Grants - pb.grants[i]
		src := p.Src.(*StridedSource)
		src.Addr += n * src.Stride
	}
}

// packedBusy reports whether a bank is busy during a packed search.
// The expiry guard makes the answer exact even when the bank's wheel
// slot has not been drained yet (bits are cleared lazily by expireTo).
func (s *System) packedBusy(bank int) bool {
	return s.words[bank>>6]&(1<<(uint(bank)&63)) != 0 && s.expiry[bank] > s.clock
}

// expireTo drains the event wheel up to and including clock t, clearing
// the busy bit of every bank whose busy period ends by t. A bank
// granted at clock g is busy for clocks g .. g+n_c-1 and its expiry
// event is scheduled at g+n_c, so draining slot t frees exactly the
// banks the scalar kernel's end-of-step decrement would have brought to
// zero before clock t's arbitration. The wheel has a power of two of
// at least n_c+1 slots, more than the longest pending horizon, so a
// slot never holds events of two different clocks, and a clock's slot
// is the clock masked to the wheel length.
func (s *System) expireTo(t int64) {
	mask := int64(len(s.wheel) - 1)
	for ; s.expired <= t; s.expired++ {
		i := s.expired & mask
		slot := s.wheel[i]
		if len(slot) == 0 {
			continue
		}
		for _, b := range slot {
			s.words[b>>6] &^= 1 << (uint(b) & 63)
		}
		s.wheel[i] = slot[:0]
	}
}

// stepPacked is one clock of a packed search: Step's arbitration order,
// conflict precedence and counters, with the busy set kept as bits plus
// an expiry wheel instead of the scalar per-bank counters, and each
// port's request read from the search's pending-bank vector, which a
// grant advances (see pendingBanks). A grant records the bank's owner
// as the port's index and the clock's bank winner as its CPU, and
// calls no source; storePacked restores the owners and advances the
// sources when the search ends. A listened search runs on the scalar
// kernel, so no event is built here.
func (s *System) stepPacked(pb *pendingBanks) {
	t := s.clock
	s.expireTo(t)
	for _, p := range s.arbitrationOrder() {
		bank := int(pb.bank[p.ID])
		sec := s.secOf[bank]
		switch {
		case s.bankStamp[bank] == t:
			// Same precedence as the scalar kernel: a bank granted
			// earlier this clock was inactive when both ports requested
			// it, so the loser sees a simultaneous (different CPU) or
			// section (same CPU) conflict, not a bank conflict.
			if s.winnerCPU[bank] != int32(p.CPU) {
				p.Count.Simultaneous++
			} else {
				p.Count.Section++
			}
		case s.packedBusy(bank):
			p.Count.Bank++
		case s.pathStamp[p.CPU][sec] == t:
			p.Count.Section++
		default:
			s.words[bank>>6] |= 1 << (uint(bank) & 63)
			exp := t + int64(s.cfg.BankBusy)
			s.expiry[bank] = exp
			slot := exp & int64(len(s.wheel)-1)
			s.wheel[slot] = append(s.wheel[slot], int32(bank))
			s.ownerID[bank] = int32(p.ID)
			s.bankStamp[bank] = t
			s.winnerCPU[bank] = int32(p.CPU)
			s.pathStamp[p.CPU][sec] = t
			pb.advance(s, p)
			p.Count.Grants++
		}
	}
	s.advanceRotation()
	s.clock++
}

// findCyclePacked is FindCycle on the packed kernel: the same per-clock
// recurrence search, recording the packed state — priority rotation,
// per-port pending bank, and the busy banks with their remaining clocks
// — as a key of fixed-width words instead of the scalar kernel's
// formatted string over all m banks. At most n_c·p banks are busy at
// once, so the key length tracks the port count, not the bank count; the
// two encodings are injective on the same state space, so the recurrence
// is found at the same clock and the returned window is identical to the
// scalar kernel's. Each port's pending bank is resolved through the
// mapper once, at entry; the key and the arbitration loop then share
// the pending-bank vector, which a grant advances (see pendingBanks).
// The search loads the packed busy set from the scalar counters on
// entry and writes it back on every return (loadPacked, storePacked).
// It fills c in place (see FindCycleInto).
//
// The visited states go into the system's recurrence table, which
// outlives the search: while the search geometry stays the same, a
// later search stops at the first state any earlier one recorded and
// reads its cycle from the table (see recurrenceTable).
func (s *System) findCyclePacked(c *Cycle, start, maxClocks int64) error {
	np := len(s.ports)
	t := &s.states
	pb := &s.pending
	t.begin(np, pb.load(s))
	s.loadPacked()

	for s.clock < start+maxClocks {
		s.expireTo(s.clock)
		// The key is appended straight onto the arena: insert keeps it
		// there, and a recurrence takes it off again, because the table
		// outlives the search and a state's key starts where the
		// previous state's ended. Its words are rr, then each port's
		// pending bank (every port of a periodic source always has
		// one), then bank<<32 | remaining clocks per busy bank in
		// ascending bank order. Both halves of a busy word fit in 32
		// bits: the wheel holds banks as int32, and a bank stays busy
		// for at most n_c clocks, fewer than the wheel's slots.
		from := len(t.arena)
		key := append(t.arena, uint64(s.rr))
		h := mixWord(0, uint64(s.rr))
		for _, b := range pb.bank {
			key = append(key, uint64(b))
			h = mixWord(h, uint64(b))
		}
		for wi, word := range s.words {
			for word != 0 {
				b := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				w := uint64(b)<<32 | uint64(s.expiry[b]-s.clock)
				key = append(key, w)
				h = mixWord(h, w)
			}
		}
		t.arena = key
		key = key[from:]
		h = finishHash(h)
		prev, slot := t.lookup(h, key)
		if prev >= 0 {
			s.storePacked(pb)
			t.arena = t.arena[:from]
			cyc, lead := t.finish(prev, s.ports)
			length := t.lengths[cyc]
			if lead+length >= maxClocks {
				// A fresh search would not have come back to the
				// cycle's first state within the budget.
				return ErrNoCycle
			}
			c.Lead, c.Length = lead, length
			c.reserve(np)
			per := t.periods[int(cyc)*stateStride*np:]
			for j := 0; j < stateStride*np; j += stateStride {
				c.Conflicts = append(c.Conflicts,
					Counters{Grants: per[j], Bank: per[j+1], Simultaneous: per[j+2], Section: per[j+3], Idle: per[j+4]})
			}
			return nil
		}
		t.insert(h, slot)
		for _, p := range s.ports {
			c := p.Count
			t.counts = append(t.counts,
				uint32(c.Grants), uint32(c.Bank), uint32(c.Simultaneous), uint32(c.Section), uint32(c.Idle))
		}
		s.stepPacked(pb)
	}
	s.storePacked(pb)
	return ErrNoCycle
}

// pendingBanks holds every port's pending request as a bank for one
// packed FindCycle search, indexed by port ID. The state key and the
// arbitration loop both read it, so a searched clock maps no address
// and divides nothing. Sharing it is sound only inside FindCycle:
// FindCycle admits only periodic sources (infinite *StridedSource)
// under ModuloMapper, whose request is always pending, is a pure
// function of Addr, and changes only when Grant advances Addr, so the
// vector changes only where stepPacked advances it. Step asks each
// source on demand, because a source such as machine's memPort may
// change its request within a clock. The System keeps the vector
// across Reset, so a reused search does not allocate it, and the
// strides and CPUs it holds are the geometry the next load compares
// against.
type pendingBanks struct {
	bank   []int32 // per port: the bank of its pending request
	step   []int32 // per port: its stride reduced mod m
	cpu    []int32 // per port: its CPU
	grants []int64 // per port: its granted requests at the load
}

// load resolves each port's pending request to its bank, panicking on
// a bank outside [0, m) as Step does, reduces each source's stride mod
// m and notes each port's grants, from which storePacked counts the
// grants of the search. It reports whether the search geometry — the
// port count and each port's CPU and reduced stride — differs from the
// previous load's.
func (pb *pendingBanks) load(s *System) (changed bool) {
	np := len(s.ports)
	changed = np != len(pb.bank)
	if cap(pb.bank) < np {
		buf := make([]int32, 3*np)
		pb.bank, pb.step, pb.cpu = buf[:np:np], buf[np:2*np:2*np], buf[2*np:]
		pb.grants = make([]int64, np)
	}
	pb.bank, pb.step, pb.cpu, pb.grants = pb.bank[:np], pb.step[:np], pb.cpu[:np], pb.grants[:np]
	mm := ModuloMapper{M: s.cfg.Banks}
	for i, p := range s.ports {
		addr, _ := p.Src.Pending(s.clock)
		pb.bank[i] = int32(s.checkedBank(addr))
		step, cpu := int32(mm.Bank(p.Src.(*StridedSource).Stride)), int32(p.CPU)
		if step != pb.step[i] || cpu != pb.cpu[i] {
			changed = true
		}
		pb.step[i], pb.cpu[i] = step, cpu
		pb.grants[i] = p.Count.Grants
	}
	return changed
}

// advance moves a granted port's pending bank on by its reduced stride;
// bank + step < 2m, so one subtraction reduces it.
func (pb *pendingBanks) advance(s *System, p *Port) {
	b := int(pb.bank[p.ID]) + int(pb.step[p.ID])
	if b >= s.cfg.Banks {
		b -= s.cfg.Banks
	}
	pb.bank[p.ID] = int32(b)
}

// mixWord folds one key word into a running state hash: the word is
// xored in and the result multiplied by an odd constant. Both steps are
// bijections of the running hash, so two keys of one length that differ
// in a single word never share a hash.
func mixWord(h, w uint64) uint64 { return (h ^ w) * 0x9e3779b97f4a7c15 }

// finishHash closes a state hash with a xorshift–multiply–xorshift,
// which brings the high bits, where a busy word keeps its bank, down to
// the low bits the recurrence table indexes with.
func finishHash(h uint64) uint64 {
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// stateStride is the number of per-port counters a recurrence-table
// state records: grants, bank, simultaneous, section, idle.
const stateStride = 5

// since returns how far a port counter has advanced from the value a
// recurrence-table state recorded. The table keeps counters modulo
// 2^32, which halves its largest array; the difference is still exact
// because a counter grows by at most one per clock, so it advances by
// at most the window's length, and the table's int32 state indices
// keep that below 2^31.
func since(cur int64, was uint32) int64 { return int64(uint32(cur) - was) }

// keptStates bounds the states a recurrence table shares between
// searches and keeps its storage for: once it holds more, the next
// search starts from an empty table and gives the storage up, so one
// long search neither pins its memory on a reused system nor makes
// every later search clear a slot array sized for it.
const keptStates = 1 << 12

// recurrenceTable records the states the packed FindCycle searches of
// one geometry have visited, and for each the cycle it leads into.
// State i's key is arena[keyEnd[i-1]:keyEnd[i]] (from 0 for i = 0),
// and hashes[i] is its key's hash (mixWord over its words, then
// finishHash). The running search's states are base, base+1, …: its
// state base+i is the state at clock start+i (the search advances one
// clock per state), so the table stores no clocks, and its port
// counters, modulo 2^32 (see since), are counts[i·stride·p :
// (i+1)·stride·p].
//
// A finished search's states stay, each with exits[i], the cycle it
// leads into and the clocks from it to that cycle (0 for a state on
// the cycle). Cycle c has period lengths[c] and per-port
// counters over one period periods[c·stride·p : (c+1)·stride·p], in
// the order of counts. Every state of a recorded cycle is in the
// table, because the search that found the cycle walked it whole.
//
// slots is an open-addressed index over the states: a power-of-two
// array holding state+1, or 0 for an empty slot, probed linearly from
// the slot a hash's low bits name. A lookup compares the stored hash
// and then the full key words of each state on its probe run, so a
// hash collision between two different states is never taken for a
// recurrence. The slot array doubles at load ½, re-filed from the
// stored hashes. The System keeps its table across Reset; begin
// empties it only when its states may not be shared, and keeps the
// storage, so a reused system appends into what earlier searches grew.
type recurrenceTable struct {
	slots  []int32
	hashes []uint64
	keyEnd []int
	arena  []uint64
	counts []uint32
	base   int32

	exits   []stateExit
	lengths []int64
	periods []int64
}

// stateExit is where a recorded state leads: the cycle it enters, and
// the clocks it takes to enter it.
type stateExit struct{ cycle, dist int32 }

// begin starts a search over np ports. It empties the table first when
// fresh is set, when the table outgrew keptStates, or when the last
// search ended without a cycle, since that search's states then lead
// nowhere the table knows. It keeps the storage unless the table
// outgrew keptStates.
func (t *recurrenceTable) begin(np int, fresh bool) {
	switch {
	case t.slots == nil || len(t.hashes) > keptStates:
		// A census search from an empty table visits about 62 states on
		// average, and a key takes one word per port, one for rr and one
		// per busy bank.
		const hint = 64
		*t = recurrenceTable{
			slots:  make([]int32, 2*hint),
			hashes: make([]uint64, 0, hint),
			keyEnd: make([]int, 0, hint),
			arena:  make([]uint64, 0, hint*(1+2*np)),
			counts: make([]uint32, 0, hint*stateStride*np),
		}
	case fresh || len(t.exits) != len(t.hashes):
		clear(t.slots)
		t.hashes = t.hashes[:0]
		t.keyEnd = t.keyEnd[:0]
		t.arena = t.arena[:0]
		t.exits = t.exits[:0]
		t.lengths, t.periods = t.lengths[:0], t.periods[:0]
	}
	t.base = int32(len(t.hashes))
	t.counts = t.counts[:0]
}

// finish ends the running search at its first recorded state, prev,
// with the ports' counters as they stand at the hit, and returns the
// cycle the search leads into and its lead. A hit on the search's own
// state base+j closes a new cycle through its states from base+j on,
// with lead j and the counters since that state; a hit k clocks in on
// an earlier search's state joins that state's cycle with lead
// k + its distance to the cycle. Either way the search's states are
// filed with their exits.
func (t *recurrenceTable) finish(prev int32, ports []*Port) (cyc int32, lead int64) {
	end := int32(len(t.hashes))
	t.exits = slices.Grow(t.exits, int(end-t.base))
	if prev < t.base {
		e := t.exits[prev]
		for i := t.base; i < end; i++ {
			t.exits = append(t.exits, stateExit{e.cycle, end - i + e.dist})
		}
		return e.cycle, int64(end - t.base + e.dist)
	}
	cyc = int32(len(t.lengths))
	t.lengths = append(t.lengths, int64(end-prev))
	was := t.counts[int(prev-t.base)*stateStride*len(ports):]
	t.periods = slices.Grow(t.periods, stateStride*len(ports))
	for i, p := range ports {
		j := stateStride * i
		c := p.Count
		t.periods = append(t.periods,
			since(c.Grants, was[j]), since(c.Bank, was[j+1]), since(c.Simultaneous, was[j+2]),
			since(c.Section, was[j+3]), since(c.Idle, was[j+4]))
	}
	for i := t.base; i < end; i++ {
		t.exits = append(t.exits, stateExit{cyc, max(prev-i, 0)})
	}
	return cyc, int64(prev - t.base)
}

// lookup returns the recorded state whose key equals key, or -1 and the
// empty slot where key's state goes. h is key's hash.
func (t *recurrenceTable) lookup(h uint64, key []uint64) (state int32, slot int) {
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		st := t.slots[i] - 1
		if st < 0 {
			return -1, i
		}
		if t.hashes[st] == h && slices.Equal(t.key(st), key) {
			return st, i
		}
	}
}

// key returns state i's key words.
func (t *recurrenceTable) key(i int32) []uint64 {
	from := 0
	if i > 0 {
		from = t.keyEnd[i-1]
	}
	return t.arena[from:t.keyEnd[i]]
}

// insert records the key the caller appended to the arena as the next
// state, with hash h, in the empty slot lookup returned for it; the
// caller appends the state's counters.
func (t *recurrenceTable) insert(h uint64, slot int) {
	t.slots[slot] = int32(len(t.hashes)) + 1
	t.hashes = append(t.hashes, h)
	t.keyEnd = append(t.keyEnd, len(t.arena))
	if 2*len(t.hashes) > len(t.slots) {
		t.grow()
	}
}

// grow doubles the slot array and re-files every state by its stored
// hash.
func (t *recurrenceTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for state, h := range t.hashes {
		i := int(h) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(state) + 1
	}
}
