package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"colcache/internal/memory"
	"colcache/internal/tint"
)

// Differential test: seeded random scripts of lookups, flushes, ASID
// switches, re-tints, snapshots and restores run against the TLB and a naive
// reference model in lockstep, and every answer and counter must agree after
// every step. The model shares no code with tlb.go: each set is a slice
// ordered most recent first, so LRU is "drop the tail" rather than a stamp
// comparison, and tints live in the model's own map rather than a PageTable.

type refEntry struct {
	pn   uint64
	asid uint16
	pte  PTE
}

type refTLB struct {
	ways  int
	sets  [][]refEntry // per set, most recently used first
	asid  uint16
	tints map[uint64]tint.Tint

	accesses, hits, misses, flushes int64
}

func newRefTLB(cfg TLBConfig) *refTLB {
	return &refTLB{
		ways:  cfg.Ways,
		sets:  make([][]refEntry, cfg.Entries/cfg.Ways),
		tints: map[uint64]tint.Tint{},
	}
}

func (m *refTLB) set(pn uint64) *[]refEntry { return &m.sets[pn%uint64(len(m.sets))] }

func (m *refTLB) lookup(pn uint64) (PTE, bool) {
	m.accesses++
	s := m.set(pn)
	for i, e := range *s {
		if e.pn == pn && e.asid == m.asid {
			copy((*s)[1:i+1], (*s)[:i])
			(*s)[0] = e
			m.hits++
			return e.pte, true
		}
	}
	m.misses++
	e := refEntry{pn: pn, asid: m.asid, pte: PTE{Tint: m.tints[pn]}}
	if len(*s) == m.ways {
		*s = (*s)[:m.ways-1]
	}
	*s = append([]refEntry{e}, *s...)
	return e.pte, false
}

func (m *refTLB) flushPage(pn uint64) bool {
	s := m.set(pn)
	kept := (*s)[:0]
	for _, e := range *s {
		if e.pn == pn {
			m.flushes++
			continue
		}
		kept = append(kept, e)
	}
	dropped := len(kept) != len(*s)
	*s = kept
	return dropped
}

func (m *refTLB) flushAll() {
	for i := range m.sets {
		m.sets[i] = nil
	}
	m.flushes++
}

func (m *refTLB) retint(base memory.Addr, size uint64, id tint.Tint) int {
	n := 0
	for _, pn := range g.PagesCovering(base, size) {
		if m.tints[pn] == id {
			continue
		}
		m.tints[pn] = id
		m.flushPage(pn)
		n++
	}
	return n
}

func (m *refTLB) resident(pn uint64) bool {
	for _, e := range *m.set(pn) {
		if e.pn == pn {
			return true
		}
	}
	return false
}

func (m *refTLB) stats() TLBStats {
	return TLBStats{Accesses: m.accesses, Hits: m.hits, Misses: m.misses, Flushes: m.flushes}
}

// clone copies everything a TLB snapshot covers: entries, ASID, counters.
// The tint map is the page table's, which a TLB snapshot does not cover.
func (m *refTLB) clone() *refTLB {
	c := *m
	c.sets = make([][]refEntry, len(m.sets))
	for i, s := range m.sets {
		c.sets[i] = append([]refEntry(nil), s...)
	}
	return &c
}

func (m *refTLB) restore(c *refTLB) {
	tints := m.tints
	*m = *c.clone()
	m.tints = tints
}

// checkTLBIndex reports the first disagreement between the TLB's index and
// its entries: a valid entry the index does not find at its own slot, or a
// cell pointing at an invalid entry, or more cells than valid entries.
func checkTLBIndex(tlb *TLB) error {
	valid := 0
	for slot, e := range tlb.entries {
		if !e.valid {
			continue
		}
		valid++
		if got := tlb.find(e.asid, e.pn); got != slot {
			return fmt.Errorf("index finds (asid %d, page %d) at slot %d, entry lives at %d", e.asid, e.pn, got, slot)
		}
	}
	cells := 0
	for i, c := range tlb.index {
		if c == 0 {
			continue
		}
		cells++
		if int(c) > len(tlb.entries) || !tlb.entries[c-1].valid {
			return fmt.Errorf("index cell %d points at slot %d, which holds no valid entry", i, int(c)-1)
		}
	}
	if cells != valid {
		return fmt.Errorf("index has %d cells for %d valid entries", cells, valid)
	}
	return nil
}

type tlbCheckpoint struct {
	snap  *TLBSnapshot
	model *refTLB
}

// runTLBScript drives one seeded script of steps operations through tlb and
// the model, failing at the first disagreement.
func runTLBScript(t *testing.T, cfg TLBConfig, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pt := NewPageTable(g)
	tlb := MustNewTLB(cfg, pt)
	model := newRefTLB(cfg)
	pages := 2*cfg.Entries + 3
	asids := 2 + rng.Intn(3)
	var recent []uint64
	var checkpoints []tlbCheckpoint

	pickPage := func() uint64 {
		if len(recent) > 0 && rng.Intn(10) < 3 {
			return recent[rng.Intn(len(recent))]
		}
		return uint64(rng.Intn(pages))
	}
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 78:
			pn := pickPage()
			recent = append(recent, pn)
			if len(recent) > 4 {
				recent = recent[1:]
			}
			addr := memory.Addr(pn)*memory.Addr(g.PageBytes) + memory.Addr(rng.Intn(g.PageBytes))
			op = fmt.Sprintf("Lookup(page %d)", pn)
			gotPTE, gotHit := tlb.Lookup(addr)
			wantPTE, wantHit := model.lookup(pn)
			if gotPTE != wantPTE || gotHit != wantHit {
				t.Fatalf("step %d %s under ASID %d: got (%+v, hit=%v), model (%+v, hit=%v)",
					step, op, model.asid, gotPTE, gotHit, wantPTE, wantHit)
			}
		case r < 82:
			id := uint16(rng.Intn(asids))
			op = fmt.Sprintf("SetASID(%d)", id)
			tlb.SetASID(id)
			model.asid = id
		case r < 86:
			pn := pickPage()
			op = fmt.Sprintf("FlushPage(%d)", pn)
			if got, want := tlb.FlushPage(pn), model.flushPage(pn); got != want {
				t.Fatalf("step %d %s = %v, model %v", step, op, got, want)
			}
		case r < 90:
			base := memory.Addr(pickPage()) * memory.Addr(g.PageBytes)
			size := uint64(rng.Intn(3 * g.PageBytes))
			id := tint.Tint(rng.Intn(4))
			op = fmt.Sprintf("Retint(%#x, %d, tint %d)", base, size, id)
			if got, want := Retint(pt, tlb, base, size, id), model.retint(base, size, id); got != want {
				t.Fatalf("step %d %s rewrote %d pages, model %d", step, op, got, want)
			}
		case r < 91:
			op = "FlushAll"
			tlb.FlushAll()
			model.flushAll()
		case r < 94:
			op = "Snapshot"
			checkpoints = append(checkpoints, tlbCheckpoint{tlb.Snapshot(nil), model.clone()})
		case r < 97:
			if len(checkpoints) == 0 {
				continue
			}
			i := rng.Intn(len(checkpoints))
			op = fmt.Sprintf("Restore(checkpoint %d of %d)", i, len(checkpoints))
			tlb.Restore(checkpoints[i].snap)
			model.restore(checkpoints[i].model)
		case r < 98:
			op = "ResetStats"
			tlb.ResetStats()
			model.accesses, model.hits, model.misses, model.flushes = 0, 0, 0, 0
		default:
			pn := pickPage()
			op = fmt.Sprintf("Resident(%d)", pn)
			if got, want := tlb.Resident(pn), model.resident(pn); got != want {
				t.Fatalf("step %d %s = %v, model %v", step, op, got, want)
			}
		}
		if got, want := tlb.Stats(), model.stats(); got != want {
			t.Fatalf("step %d after %s: stats %+v, model %+v", step, op, got, want)
		}
		if err := checkTLBIndex(tlb); err != nil {
			t.Fatalf("step %d after %s: %v", step, op, err)
		}
	}
}

func TestTLBMatchesReferenceModel(t *testing.T) {
	shapes := []TLBConfig{
		{Entries: 64, Ways: 64},
		{Entries: 64, Ways: 8},
		{Entries: 16, Ways: 2},
		{Entries: 8, Ways: 1},
		{Entries: 1, Ways: 1},
	}
	for _, cfg := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%dx%d/seed%d", cfg.Entries, cfg.Ways, seed), func(t *testing.T) {
				runTLBScript(t, cfg, seed, 4000)
			})
		}
	}
}
