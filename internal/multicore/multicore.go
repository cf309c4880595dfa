// Package multicore simulates N cores, each replaying its own memory trace
// through a private L1 column cache, connected by a snooping write-invalidate
// MSI bus to a shared, column-partitioned L2.
//
// The private L1s reuse internal/cache unchanged; the MSI line state rides in
// the cache's auxiliary per-line byte (the seam added for this package), so
// the coherence controller lives entirely above the cache. Column masks apply
// at both levels: each core has its own tint table / page table / TLB
// governing its L1, and the shared L2 is partitioned by a per-core column
// mask held in a second tint table — the arena the adaptive controller
// (internal/controller) can steer at runtime.
//
// The default stepper (Run/RunContext) is serial and deterministic: each
// step picks the core with the smallest local cycle count (ties break to
// the lowest core index — fixed round-robin arbitration) and executes its
// next trace access to completion, including every bus transaction it
// triggers. That arbitration lives in one loop, runBatch (step.go): Step,
// Run, RunContext and the epoch stepper's serial windows all step through
// it, so they cannot disagree on the interleaving. The epoch-parallel
// stepper (RunParallel, see epoch.go) runs each core's lookahead on its own
// goroutine and replays the buffered bus transactions in exactly that
// serial arbitration order at epoch barriers, so its results are
// bit-identical to the serial stepper's for any epoch length. Runs are therefore reproducible bit-for-bit at any host
// parallelism either way; the experiment runner's -jobs knob only fans out
// across independent machines.
package multicore

import (
	"fmt"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// MSI line states, stored in the L1's auxiliary per-line byte. Invalid is
// zero so a line the cache has just filled, invalidated or flushed reads as
// Invalid until the bus transaction that moved it assigns its real state —
// stale protocol state can never outlive the line it described.
const (
	StateInvalid uint8 = iota
	StateShared
	StateModified
)

// StateName names an MSI state for diagnostics.
func StateName(s uint8) string {
	switch s {
	case StateInvalid:
		return "I"
	case StateShared:
		return "S"
	case StateModified:
		return "M"
	default:
		return fmt.Sprintf("?%d", s)
	}
}

// Config assembles a Machine.
type Config struct {
	Geometry memory.Geometry
	L1       cache.Config // one private column cache per core
	L2       cache.Config // the shared column-partitioned L2
	TLB      vm.TLBConfig
	Timing   memsys.Timing
	// L2HitCycles is charged on every L2 probe; an L2 miss pays the
	// timing's MissPenalty on top, like memsys.EnableL2.
	L2HitCycles int
	// Traces holds one reference stream per core; len(Traces) is the core
	// count.
	Traces []memtrace.Trace
	// Checks enables per-step coherence invariant verification: SWMR,
	// stale-sharer detection, state/dirty consistency and the writeback
	// ledger. It walks every L1 line each step, so it is for tests and
	// conformance sweeps, not for measurement runs.
	Checks bool
}

// core is one simulated CPU: private L1 + tint table + page table + TLB,
// replaying its own trace.
type core struct {
	id    int
	l1    *cache.Cache
	tints *tint.Table
	pt    *vm.PageTable
	tlb   *vm.TLB
	trace memtrace.Trace
	pos   int

	l2tint tint.Tint // this core's tint in the shared L2's table

	instructions int64
	cycles       int64
	uncachedAcc  int64
	l2Accesses   int64
	l2Misses     int64

	invalidationsRecv int64
	interventions     int64
	upgrades          int64
}

// CoreStats snapshots one core's counters.
type CoreStats struct {
	Instructions     int64
	Cycles           int64
	MemAccesses      int64
	UncachedAccesses int64
	L1               cache.Stats
	TLB              vm.TLBStats
	L2Accesses       int64 // this core's demand probes of the shared L2
	L2Misses         int64
	// Coherence activity seen from this core's side of the bus.
	InvalidationsRecv int64 // copies this core lost to remote writes
	Interventions     int64 // this core's read misses served by a remote M copy
	Upgrades          int64 // this core's S→M promotions (BusUpgr, no data transfer)
}

// CPI returns cycles per instruction for the core.
func (s CoreStats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// L2MissRate returns the core's shared-L2 miss rate, or 0.
func (s CoreStats) L2MissRate() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Accesses)
}

// BusStats counts coherence traffic on the shared bus.
type BusStats struct {
	Reads          int64 // BusRd: read misses broadcast to the other L1s
	ReadXs         int64 // BusRdX: write misses claiming exclusive ownership
	Upgrades       int64 // BusUpgr: write hits on Shared lines
	Invalidations  int64 // remote copies dropped by BusRdX/BusUpgr
	Interventions  int64 // remote M copies that supplied data and downgraded to S
	WritebackRaces int64 // remote M copies flushed by an exclusive request before invalidation
}

// Stats aggregates the whole machine.
type Stats struct {
	Cores        []CoreStats
	Bus          BusStats
	L2           cache.Stats
	Instructions int64 // sum over cores
	Cycles       int64 // max over cores: the co-run's makespan
	// Writeback ledger: every clean→M transition creates a dirty line,
	// every writeback (eviction, intervention, invalidation race) retires
	// one. Created == Retired + lines currently in M.
	DirtyCreated int64
	DirtyRetired int64
}

// CPI returns aggregate cycles (makespan) per aggregate instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Machine is the multicore simulator. Like memsys.System it is not safe for
// concurrent use: determinism comes from the serial stepper.
type Machine struct {
	g       memory.Geometry
	timing  memsys.Timing
	cores   []*core
	l2      *cache.Cache
	l2tints *tint.Table
	l2Hit   int

	observer memsys.AccessObserver

	// Inspection hook (SetInspector): fired at exact global access counts
	// by the serial stepper's Run/RunContext. RunParallelContext falls back to
	// the serial stepper while an inspector is attached — epoch barriers
	// land at epoch-length-dependent access counts, so only the serial
	// schedule can hit the exact deterministic stride positions that make
	// frame sequences bit-identical across entry points.
	inspectEvery int64
	inspectFn    func(done int64)

	dirtyCreated int64
	dirtyRetired int64
	bus          BusStats

	check     *checker
	violation error

	// Deterministic L2 repartition schedule: events fire inside l2Demand at
	// exact shared-L2 access counts, so the serial and epoch-parallel
	// steppers apply them at the same global sequence point.
	remapSched []RemapEvent
	remapPos   int
	l2Demands  int64

	// Epoch-parallel stepper state (see epoch.go). The backoff stretch
	// lives on the machine so a run resumed after cancellation finishes the
	// stretch it was in rather than speculating into a known conflict.
	estats  EpochStats
	backoff backoffState

	// testMergeHook, when non-nil, sees every buffered record just before
	// the barrier merge applies it. Tests inject coherence-breaking
	// mutations through it to prove the invariant checker sees through the
	// parallel path.
	testMergeHook func(coreIdx int, r *epochRec)
}

// RemapEvent rewrites core Core's shared-L2 column mask immediately after
// the machine's AfterL2Accesses-th shared-L2 demand access. A schedule of
// these events is the deterministic mid-run repartition mechanism: the
// trigger is a point in the global L2 access order, which the serial and
// epoch-parallel steppers produce identically, so a schedule never breaks
// their equivalence the way a wall-clock or per-step trigger would.
type RemapEvent struct {
	AfterL2Accesses int64
	Core            int
	Mask            replacement.Mask
}

// SetRemapSchedule installs the deterministic repartition schedule. Events
// must be sorted by AfterL2Accesses (ties fire in slice order) and name
// in-range cores and non-empty masks within the L2's way count. Call before
// running; replacing the schedule mid-run is not supported.
func (m *Machine) SetRemapSchedule(evs []RemapEvent) error {
	ways := m.l2.Config().NumWays
	for i, ev := range evs {
		if ev.AfterL2Accesses < 1 {
			return fmt.Errorf("multicore: remap[%d]: AfterL2Accesses %d < 1", i, ev.AfterL2Accesses)
		}
		if i > 0 && ev.AfterL2Accesses < evs[i-1].AfterL2Accesses {
			return fmt.Errorf("multicore: remap[%d]: schedule not sorted", i)
		}
		if ev.Core < 0 || ev.Core >= len(m.cores) {
			return fmt.Errorf("multicore: remap[%d]: core %d out of range", i, ev.Core)
		}
		if ev.Mask == 0 || ev.Mask&^replacement.All(ways) != 0 {
			return fmt.Errorf("multicore: remap[%d]: mask %s outside the L2's %d ways", i, ev.Mask, ways)
		}
	}
	m.remapSched = evs
	m.remapPos = 0
	return nil
}

// New builds a Machine from cfg.
func New(cfg Config) (*Machine, error) {
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("multicore: no core traces")
	}
	if cfg.Geometry.LineBytes != cfg.L1.LineBytes {
		return nil, fmt.Errorf("multicore: geometry line size %d != L1 line size %d",
			cfg.Geometry.LineBytes, cfg.L1.LineBytes)
	}
	if cfg.L2.LineBytes != cfg.L1.LineBytes {
		return nil, fmt.Errorf("multicore: L2 line size %d != L1 line size %d",
			cfg.L2.LineBytes, cfg.L1.LineBytes)
	}
	if cfg.L1.Write != cache.WriteBackAllocate {
		return nil, fmt.Errorf("multicore: the MSI protocol needs a write-back/allocate L1, got %s", cfg.L1.Write)
	}
	tlbCfg := cfg.TLB
	if tlbCfg.Entries == 0 {
		tlbCfg = vm.DefaultTLBConfig
	}
	l2c, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("multicore: L2: %w", err)
	}
	m := &Machine{
		g:       cfg.Geometry,
		timing:  cfg.Timing,
		l2:      l2c,
		l2tints: tint.NewTable(cfg.L2.NumWays),
		l2Hit:   cfg.L2HitCycles,
	}
	for i, tr := range cfg.Traces {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d L1: %w", i, err)
		}
		pt := vm.NewPageTable(cfg.Geometry)
		tlb, err := vm.NewTLB(tlbCfg, pt)
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d TLB: %w", i, err)
		}
		m.cores = append(m.cores, &core{
			id:     i,
			l1:     l1,
			tints:  tint.NewTable(cfg.L1.NumWays),
			pt:     pt,
			tlb:    tlb,
			trace:  tr,
			l2tint: m.l2tints.NewTint(fmt.Sprintf("core%d", i)),
		})
	}
	if cfg.Checks {
		m.check = newChecker(len(m.cores))
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// L1 returns core i's private cache, for inspection.
func (m *Machine) L1(i int) *cache.Cache { return m.cores[i].l1 }

// L2 returns the shared second-level cache.
func (m *Machine) L2() *cache.Cache { return m.l2 }

// L2Tints returns the shared L2's tint table (one tint per core) — the
// handle an adaptive controller repartitions through.
func (m *Machine) L2Tints() *tint.Table { return m.l2tints }

// L2Tint returns core i's tint in the shared L2's table.
func (m *Machine) L2Tint(i int) tint.Tint { return m.cores[i].l2tint }

// SetL2Mask restricts core i's replacement in the shared L2 to mask.
func (m *Machine) SetL2Mask(i int, mask replacement.Mask) error {
	return m.l2tints.SetMask(m.cores[i].l2tint, mask)
}

// L2Mask returns the columns core i may currently replace into at the L2.
func (m *Machine) L2Mask(i int) replacement.Mask {
	return m.l2tints.Mask(m.cores[i].l2tint)
}

// MapRegion maps region r to mask in core i's private L1, mirroring
// memsys.System.MapRegion.
func (m *Machine) MapRegion(i int, r memory.Region, mask replacement.Mask) (tint.Tint, error) {
	c := m.cores[i]
	id := c.tints.NewTint(r.Name)
	if err := c.tints.SetMask(id, mask); err != nil {
		return 0, err
	}
	vm.Retint(c.pt, c.tlb, r.Base, r.Size, id)
	return id, nil
}

// SetL2Observer registers o to receive every shared-L2 access, attributed to
// the issuing core's L2 tint; nil detaches. This is the same hook shape
// memsys exposes, so the adaptive column-allocation controller plugs into
// the shared L2 without importing this package.
func (m *Machine) SetL2Observer(o memsys.AccessObserver) { m.observer = o }

// PageTable returns core i's page table, for read-only inspection (the
// inspect reducer attributes each resident L1 line to the tint of its page).
func (m *Machine) PageTable(i int) *vm.PageTable { return m.cores[i].pt }

// AccessesDone returns the total number of trace accesses executed so far,
// summed over cores — the serial stepper's global step count.
func (m *Machine) AccessesDone() int64 { return m.accessesDone() }

// RemapsFired returns how many events of the deterministic remap schedule
// have applied so far.
func (m *Machine) RemapsFired() int { return m.remapPos }

// CoreStatsAt returns core i's counters without building the whole Stats
// document — the per-frame sampling path, which must not allocate.
func (m *Machine) CoreStatsAt(i int) CoreStats {
	c := m.cores[i]
	return CoreStats{
		Instructions:      c.instructions,
		Cycles:            c.cycles,
		MemAccesses:       int64(c.pos),
		UncachedAccesses:  c.uncachedAcc,
		L1:                c.l1.Stats(),
		TLB:               c.tlb.Stats(),
		L2Accesses:        c.l2Accesses,
		L2Misses:          c.l2Misses,
		InvalidationsRecv: c.invalidationsRecv,
		Interventions:     c.interventions,
		Upgrades:          c.upgrades,
	}
}

// SetInspector registers fn to run every `every` trace accesses (exact
// global access counts), plus once at the end of a run that stops off the
// stride grid; nil detaches. The hook fires inside Run and RunContext (not
// Step) — and inside RunParallelContext, which falls back to the serial stepper while an
// inspector is attached so the frame sequence is bit-identical from either
// entry point (epoch barriers land at epoch-dependent access counts and
// cannot hit the stride positions exactly). fn runs on the simulation
// goroutine with the machine quiescent, so it may read caches, tint tables
// and page tables directly.
func (m *Machine) SetInspector(every int64, fn func(done int64)) {
	m.inspectEvery = every
	m.inspectFn = fn
}

// Done reports whether every core has exhausted its trace.
func (m *Machine) Done() bool {
	for _, c := range m.cores {
		if c.pos < len(c.trace) {
			return false
		}
	}
	return true
}

// Stats snapshots every counter; the copy shares nothing with the machine.
func (m *Machine) Stats() Stats {
	st := Stats{
		Bus:          m.bus,
		L2:           m.l2.Stats(),
		DirtyCreated: m.dirtyCreated,
		DirtyRetired: m.dirtyRetired,
	}
	for _, c := range m.cores {
		cs := CoreStats{
			Instructions:      c.instructions,
			Cycles:            c.cycles,
			MemAccesses:       int64(c.pos), // one access per executed trace entry
			UncachedAccesses:  c.uncachedAcc,
			L1:                c.l1.Stats(),
			TLB:               c.tlb.Stats(),
			L2Accesses:        c.l2Accesses,
			L2Misses:          c.l2Misses,
			InvalidationsRecv: c.invalidationsRecv,
			Interventions:     c.interventions,
			Upgrades:          c.upgrades,
		}
		st.Cores = append(st.Cores, cs)
		st.Instructions += cs.Instructions
		if cs.Cycles > st.Cycles {
			st.Cycles = cs.Cycles
		}
	}
	return st
}
