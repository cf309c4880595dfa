package multicore

import (
	"context"
	"math"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// Step advances the machine by one trace access on the core whose local
// clock is furthest behind — smallest cycle count, ties broken by lowest
// core index. This fixed arbitration makes a run a pure function of the
// configuration and traces: replaying the same inputs interleaves the cores
// identically regardless of host parallelism.
//
// It returns false when every trace is exhausted, and a non-nil error only
// when Config.Checks is on and a coherence invariant was violated.
func (m *Machine) Step() (bool, error) {
	if m.violation != nil {
		return false, m.violation
	}
	if m.runBatch(1, math.MaxInt64) == 0 {
		return false, nil
	}
	if m.check != nil {
		m.violation = m.checkStep()
	}
	return true, m.violation
}

// Run steps the machine until every trace is exhausted (or a check fails).
// It is RunContext with a context that is never canceled, so an attached
// inspector fires exactly as it does there.
func (m *Machine) Run() error {
	return m.RunContext(context.Background(), 0, nil)
}

// RunContext is Run with cooperative cancellation: every checkEvery steps
// (zero or negative means memsys.DefaultCheckEvery) the context is polled
// and onCheckpoint, when non-nil, receives the number of steps executed so
// far. The steps between two stride boundaries (checkpoint or inspection)
// run as one runBatch, so the bookkeeping amortizes over thousands of
// accesses; with Config.Checks on every batch is one step followed by the
// invariant walk.
func (m *Machine) RunContext(ctx context.Context, checkEvery int, onCheckpoint func(done int64)) error {
	if m.violation != nil {
		return m.violation
	}
	every := int64(checkEvery)
	if every <= 0 {
		every = memsys.DefaultCheckEvery
	}
	// The inspector fires at exact GLOBAL access counts (base + done), so a
	// resumed run continues the same stride grid the interrupted one used
	// and the frame sequence stays a pure function of (config, traces,
	// stride) regardless of how the run was sliced into calls.
	base := m.accessesDone()
	var inspect int64
	if m.inspectFn != nil && m.inspectEvery > 0 {
		inspect = m.inspectEvery
	}
	var done int64
	for {
		batch := every - done%every
		if inspect > 0 {
			batch = min(batch, inspect-(base+done)%inspect)
		}
		if m.check != nil {
			batch = 1
		}
		ran := m.runBatch(batch, math.MaxInt64)
		done += ran
		if m.check != nil && ran > 0 {
			if m.violation = m.checkStep(); m.violation != nil {
				return m.violation
			}
		}
		if ran < batch { // every trace exhausted
			if inspect > 0 && (base+done)%inspect != 0 {
				m.inspectFn(base + done)
			}
			if onCheckpoint != nil {
				onCheckpoint(done)
			}
			return ctx.Err()
		}
		if inspect > 0 && (base+done)%inspect == 0 {
			m.inspectFn(base + done)
		}
		if done%every == 0 {
			if onCheckpoint != nil {
				onCheckpoint(done)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// runBatch is the serial stepper: it executes up to limit accesses, each on
// the unfinished core with the smallest clock (lowest index on ties), and
// returns how many ran. It stops early when every trace is exhausted or
// when the chosen core's clock has reached horizon — then every unfinished
// core's has. Every entry point steps through here. It must stay a small
// dedicated function: inlining this loop into a caller's stride
// bookkeeping puts enough variables live across the m.access call that the
// register allocator spills on every iteration, costing ~25% of the
// stepper's throughput.
func (m *Machine) runBatch(limit, horizon int64) int64 {
	if len(m.cores) == 1 && horizon == math.MaxInt64 {
		return m.runSolo(limit)
	}
	var ran int64
	for ran < limit {
		var next *core
		for _, c := range m.cores {
			if c.pos >= len(c.trace) {
				continue
			}
			if next == nil || c.cycles < next.cycles {
				next = c
			}
		}
		if next == nil || next.cycles >= horizon {
			break
		}
		next.instructions += int64(next.trace[next.pos].Think) + 1
		next.cycles += m.access(next, next.trace[next.pos])
		next.pos++
		ran++
	}
	return ran
}

// runSolo is runBatch on a single-core machine: with no arbitration the
// instruction and cycle totals ride in locals (registers) across the batch
// and land on the core once. access still charges rare-path cycles
// (writeback races, L2 demand) to c.cycles directly; the two pools are
// disjoint, so the final flush is exact.
func (m *Machine) runSolo(limit int64) int64 {
	c := m.cores[0]
	batch := c.trace[c.pos:]
	if int64(len(batch)) > limit {
		batch = batch[:limit]
	}
	var ins, cyc int64
	for _, a := range batch {
		ins += int64(a.Think) + 1
		cyc += m.access(c, a)
	}
	c.instructions += ins
	c.cycles += cyc
	c.pos += len(batch)
	return int64(len(batch))
}

// access executes one trace access on core c, including every bus
// transaction it triggers, and returns the cycles to charge to c's local
// clock. The caller applies the delta (and the instruction count, which is
// Think+1 by definition) so the single-core replay loop can accumulate both
// in registers; bus-side charges with no place in the delta — writeback
// races, interventions, the L2 demand fetch — still land on the cores'
// clocks directly inside the helpers, which is exact because the caller
// adds the returned delta before the next arbitration decision. memAccesses
// needs no counter of its own: every trace entry is one memory access, so
// Stats derives it from the trace position.
func (m *Machine) access(c *core, a memtrace.Access) int64 {
	cyc := int64(a.Think) * int64(m.timing.NonMemInstr)

	pte, tlbHit := c.tlb.Lookup(a.Addr)
	if !tlbHit {
		cyc += int64(m.timing.TLBMiss)
	}
	if pte.Uncached {
		c.uncachedAcc++
		return cyc + int64(m.timing.Uncached)
	}

	isWrite := a.Op == memtrace.Write

	// Fast path: way-memoized L1 hit. The column mask governs replacement
	// only, so the tint lookup is skipped entirely on a hit, and the
	// line-address math runs only for the coherence transitions (or the
	// invariant checker) that need it.
	if way, st, ok := c.l1.HitFast(a.Addr, isWrite); ok {
		cyc += int64(m.timing.CacheHit)
		if isWrite && st == StateShared {
			// BusUpgr: claim ownership without a data transfer. Remote
			// copies can only be Shared here (SWMR), so no writeback races.
			lineAddr := m.g.LineBase(a.Addr)
			set, _ := c.l1.SetTagOf(a.Addr)
			m.bus.Upgrades++
			c.upgrades++
			m.invalidateRemotes(c, lineAddr)
			c.l1.SetAux(set, way, StateModified)
			m.dirtyCreated++
			m.noteWrite(c, lineAddr)
		} else if m.check != nil {
			if isWrite {
				m.noteWrite(c, m.g.LineBase(a.Addr))
			} else {
				m.noteReadHit(c, m.g.LineBase(a.Addr))
			}
		}
		return cyc
	}

	mask := c.tints.Mask(pte.Tint)
	lineAddr := m.g.LineBase(a.Addr)
	set, _ := c.l1.SetTagOf(a.Addr)

	var res cache.Result
	if isWrite {
		res = c.l1.Write(a.Addr, mask)
	} else {
		res = c.l1.Read(a.Addr, mask)
	}
	cyc += int64(m.timing.CacheHit)

	if res.Hit {
		st := c.l1.AuxAt(set, res.Way)
		switch {
		case isWrite && st == StateShared:
			// BusUpgr (hint-missed hit): same transition as the fast path.
			m.bus.Upgrades++
			c.upgrades++
			m.invalidateRemotes(c, lineAddr)
			c.l1.SetAux(set, res.Way, StateModified)
			m.dirtyCreated++
			m.noteWrite(c, lineAddr)
		case isWrite:
			m.noteWrite(c, lineAddr)
		default:
			m.noteReadHit(c, lineAddr)
		}
		return cyc
	}

	// L1 miss. The evicted victim leaves first: a dirty (Modified) victim is
	// written back into the shared L2 under this core's L2 column mask.
	if res.Evicted {
		evicted := c.l1.AddrOfTag(set, res.EvictedTag)
		if res.Writeback {
			m.l2Install(c, evicted)
			m.dirtyRetired++
			cyc += int64(m.timing.Writeback)
		}
		m.noteDrop(c, evicted)
	}

	// Bus transaction for the requested line.
	if isWrite {
		m.bus.ReadXs++
		m.invalidateRemotes(c, lineAddr)
	} else {
		m.bus.Reads++
		m.intervene(c, lineAddr)
	}

	// Fetch through the shared L2 under this core's column mask.
	l2miss := m.l2Demand(c, a, isWrite)

	if isWrite {
		c.l1.SetAux(set, res.Way, StateModified)
		m.dirtyCreated++
		m.noteWrite(c, lineAddr)
	} else {
		c.l1.SetAux(set, res.Way, StateShared)
		m.noteFill(c, lineAddr)
	}
	if m.observer != nil {
		m.observer.ObserveAccess(c.l2tint, a.Addr, l2miss)
	}
	return cyc
}

// invalidateRemotes serves the exclusive half of BusRdX/BusUpgr: every other
// core's copy of lineAddr is destroyed. A remote Modified copy wins the
// writeback race — its data is flushed to the shared L2 an instant before
// the invalidation lands, so modified data is never lost.
func (m *Machine) invalidateRemotes(req *core, lineAddr memory.Addr) {
	for _, r := range m.cores {
		if r == req {
			continue
		}
		w, ok := r.l1.Probe(lineAddr)
		if !ok {
			continue
		}
		set, _ := r.l1.SetTagOf(lineAddr)
		if r.l1.AuxAt(set, w) == StateModified {
			m.l2Install(r, lineAddr)
			m.dirtyRetired++
			m.bus.WritebackRaces++
			req.cycles += int64(m.timing.Writeback)
		}
		r.l1.Invalidate(lineAddr)
		m.bus.Invalidations++
		r.invalidationsRecv++
		m.noteDrop(r, lineAddr)
	}
}

// intervene serves a BusRd: if some core holds lineAddr Modified, it supplies
// the data — written back to the shared L2 so the requestor's fill finds it —
// and downgrades its own copy to Shared (clean). SWMR guarantees at most one
// such copy exists.
func (m *Machine) intervene(req *core, lineAddr memory.Addr) {
	for _, r := range m.cores {
		if r == req {
			continue
		}
		w, ok := r.l1.Probe(lineAddr)
		if !ok {
			continue
		}
		set, _ := r.l1.SetTagOf(lineAddr)
		if r.l1.AuxAt(set, w) != StateModified {
			continue
		}
		m.l2Install(r, lineAddr)
		m.dirtyRetired++
		r.l1.SetLineDirty(set, w, false)
		r.l1.SetAux(set, w, StateShared)
		m.bus.Interventions++
		req.interventions++
		req.cycles += int64(m.timing.Writeback)
		return
	}
}

// l2Install lands a writeback from core c (an evicted dirty victim, an
// intervention flush, or an invalidation-race flush) in the shared L2 under
// c's L2 column mask.
func (m *Machine) l2Install(c *core, lineAddr memory.Addr) {
	m.l2.Write(lineAddr, m.l2tints.Mask(c.l2tint))
}

// l2Demand performs core c's demand access at the shared L2, mirroring
// memsys.l2Access: L2HitCycles on every probe, MissPenalty (plus Writeback
// for a dirty L2 victim) when the L2 misses too.
func (m *Machine) l2Demand(c *core, a memtrace.Access, isWrite bool) bool {
	mask := m.l2tints.Mask(c.l2tint)
	var res cache.Result
	if isWrite {
		res = m.l2.Write(a.Addr, mask)
	} else {
		res = m.l2.Read(a.Addr, mask)
	}
	c.l2Accesses++
	c.cycles += int64(m.l2Hit)
	if !res.Hit {
		c.l2Misses++
		c.cycles += int64(m.timing.MissPenalty)
		if res.Writeback {
			c.cycles += int64(m.timing.Writeback)
		}
	}
	m.l2Demands++
	if m.remapSched != nil {
		for m.remapPos < len(m.remapSched) && m.remapSched[m.remapPos].AfterL2Accesses <= m.l2Demands {
			ev := m.remapSched[m.remapPos]
			// Validated by SetRemapSchedule; SetMask cannot fail here.
			_ = m.l2tints.SetMask(m.cores[ev.Core].l2tint, ev.Mask)
			m.remapPos++
		}
	}
	return !res.Hit
}
