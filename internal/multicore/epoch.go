package multicore

// The epoch-parallel stepper: the same machine, bit-identical results, one
// goroutine per core.
//
// The serial stepper (step.go) interleaves cores one access at a time —
// smallest local clock first, ties to the lowest index — which makes every
// simulated access a serialization point and 8-core throughput ~13x worse
// than 1-core. This file removes that bottleneck without giving up one bit
// of determinism, in epochs of K simulated cycles:
//
//  0. Backoff. After an epoch rolls back, the next few windows of K cycles
//     skip speculation and run straight through the serial replay path
//     (serialWindow, step 3's fallback): no snapshot, no lookahead, no
//     merge. The number of windows skipped starts at backoffInitial,
//     doubles on each consecutive rollback up to backoffMax, and resets on
//     the first clean merge. Each skipped window still ends at a K-cycle
//     barrier, so cancellation, checkpoint reporting and the Checks-mode
//     invariant walk behave exactly as they do after a merged epoch.
//     A speculation that does not follow a clean merge — the run's first
//     window, and the first window after each backoff stretch — is first
//     checked against the coming window (sharesLine): if two cores' traces
//     touch one line before their clocks can pass the horizon, the window
//     runs serially and starts a backoff stretch exactly as a rollback
//     would, without paying for the snapshot, lookahead and restore. The
//     check reads only traces and clocks, so like backoff it cannot change
//     a result.
//  1. Snapshot. The whole machine state (flat L1/L2 arrays, TLBs, every
//     counter) is captured; on the flat SoA state from PR 6 this is a few
//     contiguous copies.
//  2. Parallel lookahead. Each core runs on its own goroutine until its
//     local clock passes the horizon H = min(clocks) + K, touching ONLY its
//     private state: its L1, TLB and counters. Every access that would put a
//     transaction on the bus (an L1 miss's BusRd/BusRdX, a write hit on
//     Shared's BusUpgr) is appended to the core's ordered log instead of
//     executed, along with the local cycle cost accumulated since the
//     previous log entry. The shared L2 is frozen during this phase; cores
//     may Probe it read-only to estimate fetch latency (load balance only —
//     never correctness). Each core also records the set of line addresses
//     it touched and the set of lines its fills evicted.
//  3. Conflict scan. A buffered bus transaction conflicts when its line was
//     resident in another looking-ahead core's L1 at any point during the
//     window — that core touched it, evicted it, or still holds it. Then
//     either side could have diverged from the serial interleaving (a hit
//     that should have been invalidated away, a victim choice that should
//     have seen an invalidated way, an intervention that should have found
//     — or missed — a Modified copy), so the epoch is rolled back to the
//     snapshot and the window [old clocks, H) is replayed by serialWindow —
//     the serial stepper's runBatch, stopped at H. Everything else commutes
//     with the remote lookahead: a transaction on a line a core never held
//     reads and writes nothing that core's lookup, hit bookkeeping or victim
//     selection depends on.
//  4. Merge. With no conflicts, the buffered logs are applied at the
//     barrier in exactly the serial arbitration order. The serial schedule
//     orders accesses by (core clock before the access, core index); each
//     log record carries its local-cost prefix, so its event time is the
//     core's merged-so-far true clock plus that prefix, and a k-way merge by
//     (event time, core index) reproduces the serial global order of bus
//     transactions and L2 accesses. Records are applied through the same
//     helpers the serial stepper uses (invalidateRemotes, intervene,
//     l2Install, l2Demand), which also computes the true L2/intervention
//     cycle costs the lookahead could only estimate. A core whose log
//     drains while its trace remains is direct-executed through m.access
//     under the same (clock, index) key — after a conflict check of its
//     predicted transaction against the cores whose logs are still pending
//     and against any drained core whose folded tail of local hits reaches
//     past the access's serial key (with checks off those hits were
//     committed unkeyed, so a transaction keyed inside their span could
//     serially precede them; see mergeEpoch).
//
// Every epoch ends with all logs consumed, so every epoch boundary is a
// clean, fully-merged, serial-equivalent machine state: rollback is always
// "restore this epoch's snapshot", results are a pure function of the
// configuration and traces for ANY K (K=1 degenerates to the serial
// interleaving one access at a time), and cancellation between epochs leaves
// a consistent machine with the writeback ledger balanced.
//
// With Config.Checks on, every cached access — hits included — is logged so
// the shadow-model notes (noteWrite/noteReadHit/noteFill/noteDrop) fire at
// the barrier in serial order; the structural walk (CheckInvariants) runs
// once per epoch barrier instead of once per step. A machine with an
// AccessObserver attached (the adaptive controller seam — mid-run state the
// rollback cannot restore) or a custom injected replacement policy (not
// snapshottable) falls back to the serial stepper.

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/vm"
)

// DefaultEpochCycles is the epoch length K used when none is given: long
// enough to amortize the snapshot and barrier, short enough that the
// conflict window (and a rollback's wasted work) stays small.
const DefaultEpochCycles = 4096

// Conflict backoff (step 0). In units of W, the serial cost of one window:
// a rollback pays a snapshot, a wasted lookahead and a restore on top of
// the serial replay, and a clean epoch saves at most one window's
// arbitration — about 0.3 W at 8 cores on disjoint traffic, nothing at 2.
// Each speculation also pays a fixed cost for its snapshot, goroutines and
// restore whatever its length — about 0.1 ms per speculation on 8-core
// mc8 traffic on a 2-vCPU Xeon — so a rollback is never cheap.
// Speculating is worth it only when the next epoch is likely to merge, and
// conflicts come in runs: write-shared traffic that conflicted once tends
// to conflict again in the next window.
//
//   - backoffInitial = 4: a lone conflict on otherwise clean traffic
//     forfeits at most 4 × 0.3 W, while persistent conflicts stop costing
//     a rollback every other window. perfbench's mc8-mixed-epoch jobs are
//     about 5 windows long, so one stretch covers the rest of a job.
//   - backoffMax = 64: persistently conflicting traffic pays one rollback
//     per 65 windows, about 1% of W, or only a share check when that
//     declines the speculation; traffic that turns conflict-free is found
//     again within 64 windows.
//
// The share check (sharesLine) takes the first speculation of a run and of
// each stretch: on mc8-mixed-epoch it declines every job's first epoch, so
// those jobs run like the serial stepper.
//
// Neither value affects results: serialWindow is the rollback replay path,
// and results are invariant in where barriers fall.
const (
	backoffInitial = 4
	backoffMax     = 64
)

// backoffState is step 0's bookkeeping. The zero value speculates.
type backoffState struct {
	skip    int // serial windows left in the current stretch
	stretch int // length of the latest stretch; 0 once an epoch merges
}

// rolledBack starts the next stretch: backoffInitial windows after a clean
// merge, twice the previous stretch (capped at backoffMax) after a rollback.
func (b *backoffState) rolledBack() {
	b.stretch = min(max(2*b.stretch, backoffInitial), backoffMax)
	b.skip = b.stretch
}

// EpochStats counts what the epoch-parallel stepper did. All zeros after a
// purely serial run; exposed so experiments can report the conflict rate
// and the parallel fraction.
type EpochStats struct {
	Epochs            int64 // epochs attempted (snapshot + parallel lookahead)
	ConflictEpochs    int64 // epochs rolled back and replayed serially
	RecordsMerged     int64 // buffered records applied at barriers
	DirectAccesses    int64 // accesses executed serially inside a merge (drained log)
	LookaheadAccesses int64 // accesses executed inside parallel lookaheads (pre-rollback)
	SerialWindows     int64 // K-cycle windows run serially, without speculation, after a rollback
	// PredictedConflicts counts K-cycle windows run serially, without
	// speculation, because the share check found a line two cores touch in
	// them; each also starts a backoff stretch.
	PredictedConflicts int64
	// Fallback is why the latest RunParallelContext call handed the run to
	// the serial RunContext (one of the Fallback* constants); empty when
	// epochs ran.
	Fallback string
}

// Reasons RunParallelContext falls back to the serial stepper.
const (
	FallbackSingleCore       = "single core"
	FallbackObserver         = "AccessObserver"
	FallbackInspector        = "inspector"
	FallbackNotSnapshottable = "non-snapshottable policy"
)

// EpochStats returns the epoch-parallel stepper's counters.
func (m *Machine) EpochStats() EpochStats { return m.estats }

// Record kinds. recNote exists only with Config.Checks on: it carries a
// local hit to the barrier so the shadow-model notes fire in serial order.
const (
	recNote uint8 = iota
	recUpgrade
	recMiss
)

// epochRec is one buffered global event from a core's lookahead: a bus
// transaction (miss or upgrade) or, with checks on, a local hit note.
type epochRec struct {
	pre         int64       // local-only cycles accumulated since the previous record
	own         int64       // this access's locally-known cycles (think, TLB, L1 hit, victim writeback)
	addr        memory.Addr // accessed address (the merge's l2Demand needs it)
	line        memory.Addr // line base of addr
	evictedAddr memory.Addr // line base of the displaced victim, when evicted
	kind        uint8
	isWrite     bool
	evicted     bool
	writeback   bool // the victim was dirty
}

// coreLog is one core's per-epoch lookahead output. Buffers are reused
// across epochs.
type coreLog struct {
	recs []epochRec
	// victims holds the line addresses this core's fills evicted during the
	// window. Together with a live L1 probe it decides residence-during-
	// the-window exactly: a line the core held at ANY point in the window is
	// either still resident (probe hits) or was evicted (victims) — lines
	// the core touched need no set of their own, which keeps the hot
	// lookahead path free of per-access bookkeeping.
	victims map[memory.Addr]struct{}
	// pending tracks lines this core's buffered misses will have installed
	// in the L2 by merge time — the lookahead's fetch-latency estimator
	// counts their MissPenalty once, not per re-miss.
	pending map[memory.Addr]struct{}
	tail    int64 // local cycles after the last record
	// tailEnd is the core's clock immediately after the merge folded the
	// tail in. With checks off the tail is an UNKEYED commit of trailing
	// local hits whose serial keys reach up to (and, for zero-cost hits, at)
	// tailEnd; mergeEpoch's direct-execution conflict predicate uses it to
	// decide whether a new transaction's serial key lands inside that
	// already-committed span.
	tailEnd  int64
	accesses int64
	active   bool // this core ran a lookahead this epoch
}

func (lg *coreLog) reset() {
	lg.recs = lg.recs[:0]
	clear(lg.victims)
	clear(lg.pending)
	lg.tail = 0
	lg.tailEnd = 0
	lg.accesses = 0
	lg.active = false
}

// coreCounters is the scalar half of one core's snapshot.
type coreCounters struct {
	pos               int
	instructions      int64
	cycles            int64
	uncachedAcc       int64
	l2Accesses        int64
	l2Misses          int64
	invalidationsRecv int64
	interventions     int64
	upgrades          int64
}

// machineSnapshot captures everything an epoch can mutate. Buffers are
// reused across epochs, so steady-state snapshotting allocates nothing.
type machineSnapshot struct {
	l1    []*cache.Snapshot
	tlb   []*vm.TLBSnapshot
	l2    *cache.Snapshot
	snoop []uint64
	cores []coreCounters

	bus          BusStats
	dirtyCreated int64
	dirtyRetired int64
	l2Demands    int64
	remapPos     int
	l2Masks      []replacement.Mask // per core, only with a remap schedule

	checkVersion map[memory.Addr]uint64 // only with Config.Checks
	checkCopies  []map[memory.Addr]uint64
}

func (m *Machine) snapshotInto(s *machineSnapshot) {
	n := len(m.cores)
	if len(s.l1) != n {
		s.l1 = make([]*cache.Snapshot, n)
		s.tlb = make([]*vm.TLBSnapshot, n)
		s.cores = make([]coreCounters, n)
	}
	for i, c := range m.cores {
		s.l1[i] = c.l1.Snapshot(s.l1[i])
		s.tlb[i] = c.tlb.Snapshot(s.tlb[i])
		s.cores[i] = coreCounters{
			pos:               c.pos,
			instructions:      c.instructions,
			cycles:            c.cycles,
			uncachedAcc:       c.uncachedAcc,
			l2Accesses:        c.l2Accesses,
			l2Misses:          c.l2Misses,
			invalidationsRecv: c.invalidationsRecv,
			interventions:     c.interventions,
			upgrades:          c.upgrades,
		}
	}
	s.l2 = m.l2.Snapshot(s.l2)
	s.snoop = append(s.snoop[:0], m.snoop...)
	s.bus = m.bus
	s.dirtyCreated = m.dirtyCreated
	s.dirtyRetired = m.dirtyRetired
	s.l2Demands = m.l2Demands
	s.remapPos = m.remapPos
	if m.remapSched != nil {
		if len(s.l2Masks) != n {
			s.l2Masks = make([]replacement.Mask, n)
		}
		for i := range m.cores {
			s.l2Masks[i] = m.L2Mask(i)
		}
	}
	if m.check != nil {
		if s.checkVersion == nil {
			s.checkVersion = make(map[memory.Addr]uint64, len(m.check.version))
			s.checkCopies = make([]map[memory.Addr]uint64, n)
			for i := range s.checkCopies {
				s.checkCopies[i] = make(map[memory.Addr]uint64)
			}
		}
		copyAddrMap(s.checkVersion, m.check.version)
		for i := range s.checkCopies {
			copyAddrMap(s.checkCopies[i], m.check.copies[i])
		}
	}
}

func (m *Machine) restoreFrom(s *machineSnapshot) {
	for i, c := range m.cores {
		c.l1.Restore(s.l1[i])
		c.tlb.Restore(s.tlb[i])
		cc := s.cores[i]
		c.pos = cc.pos
		c.instructions = cc.instructions
		c.cycles = cc.cycles
		c.uncachedAcc = cc.uncachedAcc
		c.l2Accesses = cc.l2Accesses
		c.l2Misses = cc.l2Misses
		c.invalidationsRecv = cc.invalidationsRecv
		c.interventions = cc.interventions
		c.upgrades = cc.upgrades
	}
	m.l2.Restore(s.l2)
	copy(m.snoop, s.snoop)
	m.bus = s.bus
	m.dirtyCreated = s.dirtyCreated
	m.dirtyRetired = s.dirtyRetired
	m.l2Demands = s.l2Demands
	m.remapPos = s.remapPos
	if m.remapSched != nil {
		for i := range m.cores {
			// Validated masks from the live table; SetMask cannot fail.
			_ = m.l2tints.SetMask(m.cores[i].l2tint, s.l2Masks[i])
		}
	}
	if m.check != nil {
		copyAddrMap(m.check.version, s.checkVersion)
		for i := range m.check.copies {
			copyAddrMap(m.check.copies[i], s.checkCopies[i])
		}
	}
}

func copyAddrMap(dst, src map[memory.Addr]uint64) {
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
}

// snapshottable reports whether every cache in the machine supports
// Snapshot/Restore. Machines built by New always do; only a hand-assembled
// machine with an injected policy would not.
func (m *Machine) snapshottable() bool {
	if !m.l2.Snapshottable() {
		return false
	}
	for _, c := range m.cores {
		if !c.l1.Snapshottable() {
			return false
		}
	}
	return true
}

// RunParallel runs the machine to completion on the epoch-parallel stepper
// with an epoch of epochCycles simulated cycles (<=0 selects
// DefaultEpochCycles). The result is bit-identical to Run for any epoch
// length.
func (m *Machine) RunParallel(epochCycles int64) error {
	return m.RunParallelContext(context.Background(), epochCycles, 0, nil)
}

// RunParallelContext is RunParallel with cooperative cancellation and
// progress reporting, mirroring RunContext: the context is polled at every
// epoch barrier, and onCheckpoint — when non-nil — receives the total number
// of trace accesses executed once at least checkEvery more have completed
// since the last report (zero or negative means 4096). Cancellation between
// epochs leaves the machine in a consistent, fully-merged state (the
// writeback ledger balances), from which a later Run or RunParallel call
// resumes.
//
// The stepper backs off after a rollback: the next windows of epochCycles
// run serially, without speculation, for a stretch that doubles on each
// consecutive rollback and resets on the first clean merge (see the design
// comment's step 0). A speculation that does not follow a clean merge is
// skipped outright when two cores touch one line in the coming window; the
// window then runs serially and starts a stretch as a rollback would.
// Skipped windows keep the epoch barrier, so the context is polled and
// checkpoints are reported at the same granularity either way;
// EpochStats.SerialWindows and EpochStats.PredictedConflicts count them.
//
// Machines the epoch machinery cannot serve bit-identically fall back to the
// serial RunContext: a single core (nothing to parallelize), an attached
// AccessObserver (mid-run controller state a rollback cannot restore), an
// attached inspector (frames must land at exact access-count strides, which
// epoch barriers — at epoch-length-dependent positions — cannot hit), or a
// non-snapshottable injected replacement policy. EpochStats.Fallback names
// the reason.
func (m *Machine) RunParallelContext(ctx context.Context, epochCycles int64, checkEvery int, onCheckpoint func(done int64)) error {
	if epochCycles <= 0 {
		epochCycles = DefaultEpochCycles
	}
	if checkEvery <= 0 {
		checkEvery = 4096
	}
	if m.violation != nil {
		return m.violation
	}
	if reason := m.parallelFallback(); reason != "" {
		m.estats.Fallback = reason
		return m.RunContext(ctx, checkEvery, onCheckpoint)
	}
	m.estats.Fallback = ""

	logs := make([]*coreLog, len(m.cores))
	for i := range logs {
		logs[i] = &coreLog{
			victims: make(map[memory.Addr]struct{}),
			pending: make(map[memory.Addr]struct{}),
		}
	}
	snap := &machineSnapshot{}
	claims := make([]lineClaim, lineClaimSlots)
	merged := false // the previous window was a clean merge
	var lastReport int64

	for !m.Done() {
		if err := ctx.Err(); err != nil {
			if onCheckpoint != nil {
				onCheckpoint(m.accessesDone())
			}
			return err
		}

		minClock := int64(math.MaxInt64)
		for _, c := range m.cores {
			if c.pos < len(c.trace) && c.cycles < minClock {
				minClock = c.cycles
			}
		}
		horizon := minClock + epochCycles

		switch {
		case m.backoff.skip > 0:
			m.backoff.skip--
			m.estats.SerialWindows++
			if err := m.serialWindow(horizon); err != nil {
				return err
			}
		case !merged && !m.testAlwaysSpeculate && m.sharesLine(claims, horizon):
			m.estats.PredictedConflicts++
			m.backoff.rolledBack()
			if err := m.serialWindow(horizon); err != nil {
				return err
			}
		default:
			conflict, err := m.speculate(logs, snap, horizon)
			if err != nil {
				return err
			}
			merged = !conflict
			if conflict {
				m.backoff.rolledBack()
			} else {
				m.backoff.stretch = 0
			}
		}
		if m.check != nil {
			if m.violation == nil {
				m.violation = m.CheckInvariants()
			}
			if m.violation != nil {
				return m.violation
			}
		}
		if onCheckpoint != nil {
			if done := m.accessesDone(); done-lastReport >= int64(checkEvery) {
				onCheckpoint(done)
				lastReport = done
			}
		}
	}
	if onCheckpoint != nil {
		onCheckpoint(m.accessesDone())
	}
	return ctx.Err()
}

// parallelFallback names the reason the epoch machinery cannot serve this
// machine bit-identically, or returns "" when it can.
func (m *Machine) parallelFallback() string {
	switch {
	case len(m.cores) == 1:
		return FallbackSingleCore
	case m.observer != nil:
		return FallbackObserver
	case m.inspectFn != nil:
		return FallbackInspector
	case !m.snapshottable():
		return FallbackNotSnapshottable
	}
	return ""
}

// lineClaimSlots sizes sharesLine's table: a power of two, 16 KiB.
const lineClaimSlots = 1024

// lineClaim is one slot of sharesLine's direct-mapped line → first-core
// table.
type lineClaim struct {
	line memory.Addr
	core int32 // index+1 of the first core to touch line; 0 marks an empty slot
}

// sharesLine reports whether two unfinished cores touch the same line among
// the accesses a lookahead to horizon could reach. Each access advances the
// optimistic clock by at least its think time plus the cheaper of a cache
// hit and an uncached access, so each core's walk stops once that lower
// bound reaches the horizon: it covers every access the lookahead could
// run. Touched, not written: the conflict scan flags any bus transaction on
// a line another looking-ahead core held, and on cold caches read misses
// are transactions too.
//
// The table is direct-mapped with tags and a later line overwrites an
// earlier one in its slot, so a collision can hide a shared line but never
// invent one. The walk reads only traces and clocks; the answer steers
// where the window runs, never what it computes.
func (m *Machine) sharesLine(claims []lineClaim, horizon int64) bool {
	clear(claims)
	shift := 64 - uint(bits.TrailingZeros(uint(len(claims))))
	nonMem := int64(m.timing.NonMemInstr)
	minCost := int64(min(m.timing.CacheHit, m.timing.Uncached))
	for i, c := range m.cores {
		id := int32(i + 1)
		opt := c.cycles
		for pos := c.pos; pos < len(c.trace) && opt < horizon; pos++ {
			a := c.trace[pos]
			opt += int64(a.Think)*nonMem + minCost
			line := m.g.LineBase(a.Addr)
			cl := &claims[(uint64(line)*0x9e3779b97f4a7c15)>>shift]
			if cl.core != 0 && cl.line == line {
				if cl.core != id {
					return true
				}
				continue
			}
			*cl = lineClaim{line: line, core: id}
		}
	}
	return false
}

// speculate runs one epoch up to horizon: snapshot, parallel lookahead and
// merge, or — on a conflict — restore and serial replay of the window. It
// reports whether the epoch rolled back.
func (m *Machine) speculate(logs []*coreLog, snap *machineSnapshot, horizon int64) (bool, error) {
	m.snapshotInto(snap)
	m.estats.Epochs++

	var wg sync.WaitGroup
	for i, c := range m.cores {
		lg := logs[i]
		lg.reset()
		if c.pos >= len(c.trace) || c.cycles >= horizon {
			continue
		}
		lg.active = true
		wg.Add(1)
		go func(c *core, lg *coreLog) {
			defer wg.Done()
			m.lookahead(c, lg, horizon)
		}(c, lg)
	}
	wg.Wait()
	for _, lg := range logs {
		m.estats.LookaheadAccesses += lg.accesses
	}

	conflict, err := m.mergeEpoch(logs)
	if err != nil || !conflict {
		return false, err
	}
	m.estats.ConflictEpochs++
	m.restoreFrom(snap)
	return true, m.serialWindow(horizon)
}

func (m *Machine) accessesDone() int64 {
	var n int64
	for _, c := range m.cores {
		n += int64(c.pos)
	}
	return n
}

// lookahead pre-executes core c's trace until its optimistic clock reaches
// the horizon, mutating only c's private state (L1, TLB, counters) and
// buffering every global event into lg. The optimistic clock adds a fetch
// estimate for misses from a read-only probe of the frozen L2; the true cost
// is computed at the merge, so the estimate shapes only how much work lands
// in this epoch, never the result.
func (m *Machine) lookahead(c *core, lg *coreLog, horizon int64) {
	checks := m.check != nil
	// Hoist the per-access constants so the hot loop reads registers, not
	// the Machine: this loop must stay as close to the single-core replay
	// loop's cost as possible — it IS the parallel fraction.
	nonMem := int64(m.timing.NonMemInstr)
	tlbMiss := int64(m.timing.TLBMiss)
	uncached := int64(m.timing.Uncached)
	cacheHit := int64(m.timing.CacheHit)
	trace, pos := c.trace, c.pos
	l1, tlb := c.l1, c.tlb
	opt := c.cycles
	var local, ins int64
	for pos < len(trace) && opt < horizon {
		a := trace[pos]
		pos++
		ins += int64(a.Think) + 1
		cyc := int64(a.Think) * nonMem

		pte, tlbHit := tlb.Lookup(a.Addr)
		if !tlbHit {
			cyc += tlbMiss
		}
		if pte.Uncached {
			c.uncachedAcc++
			cyc += uncached
			local += cyc
			opt += cyc
			continue
		}

		isWrite := a.Op == memtrace.Write
		if way, st, ok := l1.HitFast(a.Addr, isWrite); ok {
			cyc += cacheHit
			if isWrite && st == StateShared {
				lineAddr := m.g.LineBase(a.Addr)
				set, _ := l1.SetTagOf(a.Addr)
				l1.SetAux(set, way, StateModified)
				lg.recs = append(lg.recs, epochRec{kind: recUpgrade, pre: local, own: cyc, line: lineAddr, isWrite: true})
				local = 0
			} else if checks {
				lg.recs = append(lg.recs, epochRec{kind: recNote, pre: local, own: cyc, line: m.g.LineBase(a.Addr), isWrite: isWrite})
				local = 0
			} else {
				local += cyc
			}
			opt += cyc
			continue
		}

		lineAddr := m.g.LineBase(a.Addr)
		mask := c.tints.Mask(pte.Tint)
		set, _ := l1.SetTagOf(a.Addr)
		var res cache.Result
		if isWrite {
			res = l1.Write(a.Addr, mask)
		} else {
			res = l1.Read(a.Addr, mask)
		}
		cyc += cacheHit

		if res.Hit {
			st := l1.AuxAt(set, res.Way)
			if isWrite && st == StateShared {
				l1.SetAux(set, res.Way, StateModified)
				lg.recs = append(lg.recs, epochRec{kind: recUpgrade, pre: local, own: cyc, line: lineAddr, isWrite: true})
				local = 0
			} else if checks {
				lg.recs = append(lg.recs, epochRec{kind: recNote, pre: local, own: cyc, line: lineAddr, isWrite: isWrite})
				local = 0
			} else {
				local += cyc
			}
			opt += cyc
			continue
		}

		// Miss: fill locally now (the victim's L2 install and the bus
		// transaction are deferred to the merge), estimate the fetch.
		r := epochRec{kind: recMiss, pre: local, own: cyc, addr: a.Addr, line: lineAddr, isWrite: isWrite}
		local = 0
		if res.Evicted {
			r.evicted = true
			r.evictedAddr = l1.AddrOfTag(set, res.EvictedTag)
			lg.victims[r.evictedAddr] = struct{}{}
			if res.Writeback {
				r.writeback = true
				r.own += int64(m.timing.Writeback)
			}
		}
		if isWrite {
			l1.SetAux(set, res.Way, StateModified)
		} else {
			l1.SetAux(set, res.Way, StateShared)
		}
		// Only this core's words of the mirror change here, so the
		// lookahead goroutines never write the same word.
		m.snoopFill(c, set, res.Way, lineAddr)
		lg.recs = append(lg.recs, r)

		est := int64(m.l2Hit)
		if _, inL2 := m.l2.Probe(lineAddr); !inL2 {
			if _, pend := lg.pending[lineAddr]; !pend {
				est += int64(m.timing.MissPenalty)
				lg.pending[lineAddr] = struct{}{}
			}
		}
		if r.writeback {
			lg.pending[r.evictedAddr] = struct{}{}
		}
		opt += r.own + est
	}
	lg.accesses = int64(pos - c.pos)
	c.pos = pos
	c.instructions += ins
	lg.tail = local
}

// txConflicts reports whether a bus transaction on line from core i would
// have to interleave with another core's private lookahead window — i.e.
// whether the line was resident in that core's L1 at any point during the
// window, so the probe, invalidation or downgrade the transaction performs
// (or the transaction's own outcome: an intervention found or missed, a
// writeback race won or lost) could depend on where inside the window it
// lands. Residence during the window decomposes exactly: any line the core
// held — whether it hit it, filled it, or carried it in from before the
// epoch — is either still resident at window end (its word in the line's
// snoop-mirror row) or was displaced by one of the core's fills (recorded in
// victims).
// Cores that ran no lookahead this epoch are exempt: their L1s are static
// across the window, and the merge applies every transaction against them
// in serial key order, so placement inside the window cannot matter. When
// consider is non-nil, only active cores it reports true for are examined
// (see mergeEpoch's direct-execution predicate).
func (m *Machine) txConflicts(i int, line memory.Addr, logs []*coreLog, consider func(j int) bool) bool {
	examine := func(j int) bool {
		return j != i && logs[j].active && (consider == nil || consider(j))
	}
	_, row, key := m.snoopLine(line)
	for k, v := range row {
		if v == key && examine(k/m.snoopWays) {
			return true
		}
	}
	for j, lg := range logs {
		if _, ok := lg.victims[line]; ok && examine(j) {
			return true
		}
	}
	return false
}

// predictTx reports whether executing access a on core c would put a
// transaction on the bus, and for which line, without perturbing any state:
// the page table is consulted directly (the TLB inside m.access will do the
// counted lookup) and the L1 via its read-only Probe.
func (m *Machine) predictTx(c *core, a memtrace.Access) (memory.Addr, bool) {
	if c.pt.Lookup(a.Addr).Uncached {
		return 0, false
	}
	w, hit := c.l1.Probe(a.Addr)
	line := m.g.LineBase(a.Addr)
	if !hit {
		return line, true
	}
	if a.Op == memtrace.Write {
		set, _ := c.l1.SetTagOf(a.Addr)
		if c.l1.AuxAt(set, w) == StateShared {
			return line, true
		}
	}
	return 0, false
}

// mergeEpoch scans the epoch's logs for conflicts and, finding none, applies
// every buffered record in the serial arbitration order. It reports
// conflict=true when the caller must roll back to the epoch snapshot and
// replay the window serially; a non-nil error is an invariant violation
// (checks mode only).
//
// Ordering: the serial stepper executes the access of the core with the
// smallest clock, lowest index on ties, and every access advances only its
// own core's clock — so the serial schedule is exactly a k-way merge of the
// per-core access sequences keyed by (clock before the access, core index).
// A pending record's key is the core's merged-so-far true clock plus the
// record's local-cost prefix; a drained core's key is its true clock. A
// drained core (log fully applied, tail cycles folded in) is AT its true
// clock, so when it holds the minimum key its next trace access is the next
// serial event and can be executed directly with m.access. Its transaction,
// if any, is conflict-checked against every core with still-pending records
// AND every drained core whose tail fold reaches past the access's key:
// with checks off a core's trailing local hits are committed as one unkeyed
// tail whose serial keys extend up to tailEnd, so a transaction keyed below
// tailEnd (or at it, when the tie breaks toward the transaction) could
// serially land before hits that were already applied — those cores must be
// probed like any pending one. A drained core whose tailEnd sits at or
// below the key is provably safe: every access it has committed precedes
// the new one in the serial schedule, and everything it has left is keyed
// at or above its clock ≥ the current minimum. Note the tail-window check
// never misses a post-fold eviction: while tailEnd exceeds the current
// minimum key, that core cannot yet have direct-executed anything (its
// first post-fold access is keyed at or above tailEnd), so its L1 and
// victim set still describe the lookahead window exactly.
func (m *Machine) mergeEpoch(logs []*coreLog) (bool, error) {
	remaining := 0
	for i, lg := range logs {
		for ri := range lg.recs {
			r := &lg.recs[ri]
			if r.kind == recNote {
				continue
			}
			if m.txConflicts(i, r.line, logs, nil) {
				return true, nil
			}
		}
		remaining += len(lg.recs)
		if len(lg.recs) == 0 {
			// No global events: the whole lookahead was local time.
			m.cores[i].cycles += lg.tail
			lg.tail = 0
			lg.tailEnd = m.cores[i].cycles
		}
	}

	cur := make([]int, len(logs))
	for remaining > 0 {
		best, bestKey, bestRec := -1, int64(0), false
		for i, c := range m.cores {
			if cur[i] < len(logs[i].recs) {
				if t := c.cycles + logs[i].recs[cur[i]].pre; best < 0 || t < bestKey {
					best, bestKey, bestRec = i, t, true
				}
			} else if c.pos < len(c.trace) {
				if t := c.cycles; best < 0 || t < bestKey {
					best, bestKey, bestRec = i, t, false
				}
			}
		}

		c := m.cores[best]
		if !bestRec {
			// Drained log, trace remaining: direct-execute the next access.
			a := c.trace[c.pos]
			if line, tx := m.predictTx(c, a); tx {
				conflicts := func(j int) bool {
					if cur[j] < len(logs[j].recs) {
						return true
					}
					// Drained core: its trailing local hits were committed as
					// one unkeyed tail ending at tailEnd. If that span reaches
					// past this access's serial key (ties break toward the
					// lower index), the transaction would serially precede
					// some of those already-committed hits — check it.
					te := logs[j].tailEnd
					return te > bestKey || (te == bestKey && j > best)
				}
				if m.txConflicts(best, line, logs, conflicts) {
					return true, nil
				}
			}
			c.instructions += int64(a.Think) + 1
			c.cycles += m.access(c, a)
			c.pos++
			m.estats.DirectAccesses++
			if m.violation != nil {
				return false, m.violation
			}
			continue
		}

		lg := logs[best]
		r := &lg.recs[cur[best]]
		cur[best]++
		remaining--
		m.estats.RecordsMerged++
		if m.testMergeHook != nil {
			m.testMergeHook(best, r)
		}
		c.cycles += r.pre + r.own
		switch r.kind {
		case recNote:
			if r.isWrite {
				m.noteWrite(c, r.line)
			} else {
				m.noteReadHit(c, r.line)
			}
		case recUpgrade:
			m.bus.Upgrades++
			c.upgrades++
			m.invalidateRemotes(c, r.line)
			m.dirtyCreated++
			m.noteWrite(c, r.line)
		case recMiss:
			if r.evicted {
				if r.writeback {
					m.l2Install(c, r.evictedAddr)
					m.dirtyRetired++
				}
				m.noteDrop(c, r.evictedAddr)
			}
			op := memtrace.Read
			if r.isWrite {
				op = memtrace.Write
				m.bus.ReadXs++
				m.invalidateRemotes(c, r.line)
			} else {
				m.bus.Reads++
				m.intervene(c, r.line)
			}
			m.l2Demand(c, memtrace.Access{Addr: r.addr, Op: op}, r.isWrite)
			if r.isWrite {
				m.dirtyCreated++
				m.noteWrite(c, r.line)
			} else {
				m.noteFill(c, r.line)
			}
		}
		if cur[best] == len(lg.recs) {
			c.cycles += lg.tail
			lg.tail = 0
			lg.tailEnd = c.cycles
		}
		if m.violation != nil {
			return false, m.violation
		}
	}
	return false, nil
}

// serialWindow replays, with the serial stepper's exact arbitration, every
// access that starts before the horizon. Afterwards each unfinished core's
// clock is ≥ horizon — the same clean barrier state a merged epoch reaches —
// so the next epoch proceeds identically to the serial schedule. With
// Config.Checks on it steps one access at a time so a violation the shadow
// model records stops the window where it happened.
func (m *Machine) serialWindow(horizon int64) error {
	if m.check == nil {
		m.runBatch(math.MaxInt64, horizon)
		return nil
	}
	for m.violation == nil {
		if m.runBatch(1, horizon) == 0 {
			break
		}
	}
	return m.violation
}
