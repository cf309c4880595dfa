package vm

import (
	"fmt"

	"colcache/internal/memory"
	"colcache/internal/tint"
)

// TLBConfig sizes the translation-lookaside buffer.
type TLBConfig struct {
	Entries int // total entries (power of two)
	Ways    int // associativity; Entries/Ways sets. Ways==Entries => fully associative.
}

// DefaultTLBConfig is a 64-entry fully-associative TLB, typical of embedded
// cores of the paper's era.
var DefaultTLBConfig = TLBConfig{Entries: 64, Ways: 64}

func (c TLBConfig) validate() error {
	if c.Entries <= 0 || !memory.IsPow2(c.Entries) {
		return fmt.Errorf("vm: TLB entry count %d is not a positive power of two", c.Entries)
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("vm: TLB ways %d does not divide entries %d", c.Ways, c.Entries)
	}
	if sets := c.Entries / c.Ways; !memory.IsPow2(sets) {
		return fmt.Errorf("vm: TLB set count %d is not a power of two", sets)
	}
	return nil
}

// TLBStats counts TLB events.
type TLBStats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	Flushes  int64 // single-entry flushes due to re-tinting
}

// HitRate returns hits/accesses, or 1 for an untouched TLB.
func (s TLBStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type tlbEntry struct {
	pn    uint64
	asid  uint16
	pte   PTE
	valid bool
	stamp uint64
}

// TLB caches PTEs, including the tint extension. Lookups that miss walk the
// page table (cost accounted by the memory system) and install the entry,
// evicting the LRU entry of the set.
type TLB struct {
	cfg     TLBConfig
	pt      *PageTable
	pgShift uint // page-number shift, mirrored from the geometry
	numSets uint64
	entries []tlbEntry // flat, slot = set*Ways + way
	asid    uint16

	// Exact (asid, page) → slot index, so a hit that misses the memo finds
	// its entry without scanning the set. Open addressing with linear
	// probing over a power-of-two table at most half full; a cell holds
	// slot+1 (0 is empty) and the key is read from the entry it points at.
	// Invariant: every valid entry has exactly one cell, and every non-empty
	// cell points at a valid entry. install, FlushPage, FlushAll and Restore
	// maintain it; SetASID needs nothing because the ASID is part of the key.
	index      []uint32
	indexShift uint // 64 - log2(len(index))

	// Counter economy on the lookup path: clock advances once per Lookup, so
	// Accesses is derived as clock-clockBase (clockBase snapshots clock at
	// the last ResetStats) and Hits as Accesses-Misses. Only misses and
	// flushes keep dedicated counters; the memo hit path writes exactly two
	// words (clock, entry stamp).
	clock     uint64
	clockBase uint64
	misses    int64
	flushes   int64

	// Last-translation memo: the entry and page number of the most recent
	// hit or install. Consecutive accesses to the same page — the common
	// case at cache-line granularity — skip the associative scan with a
	// single compare against memoPn. The memo is maintained by invariant
	// rather than validated per use: every mutation that could make it
	// stale goes through a TLB method (FlushPage, FlushAll, SetASID, an
	// install in lookupSlow), and each of those either repoints or drops
	// it, so memo non-nil implies memo is the live, valid entry for
	// (memoPn, current ASID). The hit updates the entry's recency stamp
	// exactly like the indexed path. (Entries are allocated once in NewTLB
	// and never reallocated, so the pointer stays valid for the TLB's
	// lifetime.)
	memo   *tlbEntry
	memoPn uint64
}

// dropMemo invalidates the last-translation memo.
func (t *TLB) dropMemo() {
	t.memo = nil
	t.memoPn = 0
}

// NewTLB builds a TLB over page table pt.
func NewTLB(cfg TLBConfig, pt *PageTable) (*TLB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bits := memory.Log2(cfg.Entries) + 1
	return &TLB{
		cfg:        cfg,
		pt:         pt,
		pgShift:    memory.Log2(pt.g.PageBytes),
		numSets:    uint64(cfg.Entries / cfg.Ways),
		entries:    make([]tlbEntry, cfg.Entries),
		index:      make([]uint32, 1<<bits),
		indexShift: 64 - bits,
	}, nil
}

// MustNewTLB is NewTLB that panics on error.
func MustNewTLB(cfg TLBConfig, pt *PageTable) *TLB {
	t, err := NewTLB(cfg, pt)
	if err != nil {
		panic(err)
	}
	return t
}

// Stats returns the accumulated counters.
func (t *TLB) Stats() TLBStats {
	acc := int64(t.clock - t.clockBase)
	return TLBStats{
		Accesses: acc,
		Hits:     acc - t.misses,
		Misses:   t.misses,
		Flushes:  t.flushes,
	}
}

// ResetStats zeroes the counters without dropping entries.
func (t *TLB) ResetStats() {
	t.clockBase = t.clock
	t.misses = 0
	t.flushes = 0
}

// set returns the ways of page pn's set and the slot of its first way.
func (t *TLB) set(pn uint64) ([]tlbEntry, int) {
	base := int(pn%t.numSets) * t.cfg.Ways
	return t.entries[base : base+t.cfg.Ways], base
}

// home is the index cell a key hashes to (Fibonacci hashing). The & 63
// lets the compiler drop its guard for shifts of 64 or more.
func (t *TLB) home(asid uint16, pn uint64) uint64 {
	return ((pn ^ uint64(asid)<<48) * 0x9E3779B97F4A7C15) >> (t.indexShift & 63)
}

// find returns the slot of the valid entry for (asid, pn), or -1.
func (t *TLB) find(asid uint16, pn uint64) int {
	mask := uint64(len(t.index) - 1)
	for i := t.home(asid, pn); ; i = (i + 1) & mask {
		c := t.index[i]
		if c == 0 {
			return -1
		}
		if e := &t.entries[c-1]; e.pn == pn && e.asid == asid {
			return int(c - 1)
		}
	}
}

// indexSlot adds the valid entry at slot to the index.
func (t *TLB) indexSlot(slot int) {
	e := &t.entries[slot]
	mask := uint64(len(t.index) - 1)
	i := t.home(e.asid, e.pn)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = uint32(slot + 1)
}

// unindexSlot removes the entry at slot, still holding its key, from the
// index, shifting later cells of the probe run back so no lookup stops
// short at the hole.
func (t *TLB) unindexSlot(slot int) {
	e := &t.entries[slot]
	mask := uint64(len(t.index) - 1)
	hole := t.home(e.asid, e.pn)
	for t.index[hole] != uint32(slot+1) {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; t.index[i] != 0; i = (i + 1) & mask {
		m := &t.entries[t.index[i]-1]
		// A cell may fill the hole unless its home lies cyclically in
		// (hole, i]: moving it before its home would hide it.
		if (i-t.home(m.asid, m.pn))&mask >= (i-hole)&mask {
			t.index[hole] = t.index[i]
			hole = i
		}
	}
	t.index[hole] = 0
}

// Lookup returns the PTE for the page containing addr and whether it was a
// TLB hit. On a miss the entry is walked from the page table and installed.
// The memo fast path lives in this wrapper so it inlines into callers; the
// associative scan and install stay in lookupSlow.
func (t *TLB) Lookup(addr memory.Addr) (PTE, bool) {
	pn := addr >> t.pgShift
	if e := t.memo; e != nil && t.memoPn == pn {
		t.clock++
		e.stamp = t.clock
		return e.pte, true
	}
	return t.lookupSlow(pn)
}

func (t *TLB) lookupSlow(pn uint64) (PTE, bool) {
	t.clock++
	if slot := t.find(t.asid, pn); slot >= 0 {
		e := &t.entries[slot]
		e.stamp = t.clock
		t.memo, t.memoPn = e, pn
		return e.pte, true
	}
	t.misses++
	pte := t.pt.LookupPage(pn)
	// Install, evicting LRU (or an invalid slot).
	set, base := t.set(pn)
	victim, best := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < best {
			victim, best = i, set[i].stamp
		}
	}
	if set[victim].valid {
		t.unindexSlot(base + victim)
	}
	set[victim] = tlbEntry{pn: pn, asid: t.asid, pte: pte, valid: true, stamp: t.clock}
	t.indexSlot(base + victim)
	t.memo, t.memoPn = &set[victim], pn
	return pte, false
}

// SetASID switches the current address-space identifier. Entries installed
// under other ASIDs stay resident but stop matching, so a context switch
// needs no flush — the alternative to FlushAll on machines whose TLB tags
// entries (ASIDs change which process's entries are live, not the page
// table, which in this simulator is shared and physically tagged).
func (t *TLB) SetASID(id uint16) {
	t.asid = id
	t.dropMemo()
}

// ASID returns the current address-space identifier.
func (t *TLB) ASID() uint16 { return t.asid }

// FlushPage invalidates every entry for page pn, and reports whether any
// was dropped. Re-tinting a page must flush (or update) its TLB entries so
// the new tint is observed — every entry, across ASIDs: the page table is
// shared and physically tagged, so a page looked up under two ASIDs has two
// cached copies, and leaving either one valid would let a stale tint keep
// governing replacement after a Retint. (Found by the differential
// conformance oracle: the first-match-only flush this replaces diverged
// from the reference model on ASID-switching scripts.)
func (t *TLB) FlushPage(pn uint64) bool {
	t.dropMemo()
	set, base := t.set(pn)
	any := false
	for i := range set {
		if set[i].valid && set[i].pn == pn {
			t.unindexSlot(base + i)
			set[i].valid = false
			t.flushes++
			any = true
		}
	}
	return any
}

// FlushAll invalidates every entry, as on a context switch without ASIDs.
func (t *TLB) FlushAll() {
	t.dropMemo()
	for i := range t.entries {
		t.entries[i].valid = false
	}
	clear(t.index)
	t.flushes++
}

// TLBSnapshot is a detached copy of a TLB's mutable state — every entry plus
// the ASID and the statistics counters. The epoch-parallel multicore stepper
// snapshots each core's TLB at epoch boundaries so a conflicting epoch can be
// rolled back. The index is not copied: Restore rebuilds it from the
// entries. The zero value is ready to be filled by TLB.Snapshot.
type TLBSnapshot struct {
	entries   []tlbEntry
	asid      uint16
	clock     uint64
	clockBase uint64
	misses    int64
	flushes   int64
}

// Snapshot copies the TLB's complete mutable state into dst, allocating only
// when dst is nil or sized for a different TLB. The returned snapshot shares
// nothing with the live TLB.
func (t *TLB) Snapshot(dst *TLBSnapshot) *TLBSnapshot {
	if dst == nil {
		dst = &TLBSnapshot{}
	}
	if len(dst.entries) != t.cfg.Entries {
		dst.entries = make([]tlbEntry, t.cfg.Entries)
	}
	copy(dst.entries, t.entries)
	dst.asid = t.asid
	dst.clock = t.clock
	dst.clockBase = t.clockBase
	dst.misses = t.misses
	dst.flushes = t.flushes
	return dst
}

// Restore copies a snapshot taken from this TLB (same configuration) back
// over the live state, rebuilds the index from the restored entries, and
// drops the last-translation memo, which may point at a slot the restore
// rewrote.
func (t *TLB) Restore(s *TLBSnapshot) {
	if len(s.entries) != t.cfg.Entries {
		panic("vm: TLB Restore with a snapshot of a different shape")
	}
	copy(t.entries, s.entries)
	clear(t.index)
	for i := range t.entries {
		if t.entries[i].valid {
			t.indexSlot(i)
		}
	}
	t.asid = s.asid
	t.clock = s.clock
	t.clockBase = s.clockBase
	t.misses = s.misses
	t.flushes = s.flushes
	t.dropMemo()
}

// Resident reports whether page pn currently has a valid entry.
func (t *TLB) Resident(pn uint64) bool {
	set, _ := t.set(pn)
	for _, e := range set {
		if e.valid && e.pn == pn {
			return true
		}
	}
	return false
}

// Retint is the full paper §2.2 re-tinting operation: update the page-table
// entries for [base, base+size) and flush the TLB entries of every page that
// changed. It returns the number of pages whose entries were rewritten.
func Retint(pt *PageTable, t *TLB, base memory.Addr, size uint64, id tint.Tint) int {
	changed := pt.SetTintRange(base, size, id)
	for _, pn := range changed {
		t.FlushPage(pn)
	}
	return len(changed)
}
