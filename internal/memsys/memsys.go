// Package memsys composes the simulated machine: CPU port → TLB → column
// cache and/or scratchpad → main memory, with cycle accounting. It is the
// trace-driven substrate all experiments run on.
//
// The timing model is deliberately simple — a fixed hit latency and a fixed
// miss penalty — because every effect the paper measures (Figures 4 and 5)
// is a hit-rate effect produced by the replacement mechanism. Penalties are
// configurable so the crossover ablations can sweep them.
package memsys

import (
	"context"
	"fmt"
	"io"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/scratchpad"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// Timing fixes the cycle costs of the machine. Zero-valued fields are legal
// (a cost of zero cycles); use DefaultTiming for a realistic starting point.
type Timing struct {
	NonMemInstr   int // cycles per non-memory instruction
	CacheHit      int // cycles for an L1 hit (and the L1 probe on a miss)
	MissPenalty   int // additional cycles to fetch a line from main memory
	Writeback     int // additional cycles when a miss evicts a dirty line
	ScratchpadHit int // cycles for a dedicated-scratchpad access
	Uncached      int // cycles for an uncached access
	TLBMiss       int // additional cycles for a page-table walk on TLB miss
	ContextSwitch int // cycles charged by the scheduler per switch
	// WriteThroughStore is the additional cost of every store under a
	// write-through cache (the memory/bus trip a write buffer cannot fully
	// hide under sustained stores). Zero models a perfect write buffer.
	WriteThroughStore int
}

// DefaultTiming models a small embedded core: single-cycle execute and L1
// hit, a 20-cycle main-memory access, single-cycle scratchpad.
var DefaultTiming = Timing{
	NonMemInstr:   1,
	CacheHit:      1,
	MissPenalty:   20,
	Writeback:     5,
	ScratchpadHit: 1,
	Uncached:      20,
	TLBMiss:       0,
	ContextSwitch: 0,
}

// Config assembles a System.
type Config struct {
	Geometry memory.Geometry
	Cache    cache.Config
	TLB      vm.TLBConfig
	Timing   Timing
	// ScratchpadBytes sizes the dedicated scratchpad SRAM; 0 means none.
	ScratchpadBytes uint64
}

// Stats aggregates machine-level counters.
type Stats struct {
	Instructions       int64
	Cycles             int64
	MemAccesses        int64
	ScratchpadAccesses int64
	UncachedAccesses   int64
	Cache              cache.Stats
	TLB                vm.TLBStats
	// L2 holds the second-level counters and HasL2 whether one is attached;
	// the zero value means a machine with no L2.
	L2    cache.Stats
	HasL2 bool
}

// CPI returns cycles per instruction, the paper's Figure 5 metric.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

func (s Stats) String() string {
	out := fmt.Sprintf("instrs=%d cycles=%d CPI=%.3f mem=%d scratch=%d cache{%s}",
		s.Instructions, s.Cycles, s.CPI(), s.MemAccesses, s.ScratchpadAccesses, s.Cache)
	if s.HasL2 {
		out += fmt.Sprintf(" l2{%s}", s.L2)
	}
	return out + fmt.Sprintf(" tlb{hit=%.2f%%}", 100*s.TLB.HitRate())
}

// AccessObserver receives every access that reaches the cache, after it
// resolved, attributed to the tint that governed its replacement mask.
// Scratchpad and uncached accesses bypass the cache and are not reported.
// Observers may remap tints from inside the callback (the adaptive
// controller does); the new masks apply from the next access on.
type AccessObserver interface {
	ObserveAccess(id tint.Tint, addr memory.Addr, miss bool)
}

// System is the simulated machine. It is not safe for concurrent use.
type System struct {
	g         memory.Geometry
	cache     *cache.Cache
	tints     *tint.Table
	pt        *vm.PageTable
	tlb       *vm.TLB
	scratch   *scratchpad.Scratchpad
	timing    Timing
	l2        *l2
	tintStats map[tint.Tint]*tintEntry
	observer  AccessObserver
	energy    Energy
	energyPJ  int64

	instructions int64
	cycles       int64
	memAccesses  int64
	scratchAcc   int64
	uncachedAcc  int64
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if cfg.Geometry.LineBytes == 0 {
		return nil, fmt.Errorf("memsys: geometry not initialized")
	}
	if cfg.Geometry.LineBytes != cfg.Cache.LineBytes {
		return nil, fmt.Errorf("memsys: geometry line size %d != cache line size %d",
			cfg.Geometry.LineBytes, cfg.Cache.LineBytes)
	}
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	pt := vm.NewPageTable(cfg.Geometry)
	tlbCfg := cfg.TLB
	if tlbCfg.Entries == 0 {
		tlbCfg = vm.DefaultTLBConfig
	}
	tlb, err := vm.NewTLB(tlbCfg, pt)
	if err != nil {
		return nil, err
	}
	return &System{
		g:       cfg.Geometry,
		cache:   c,
		tints:   tint.NewTable(cfg.Cache.NumWays),
		pt:      pt,
		tlb:     tlb,
		scratch: scratchpad.New(cfg.ScratchpadBytes),
		timing:  cfg.Timing,
		energy:  DefaultEnergy,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Geometry returns the machine geometry.
func (s *System) Geometry() memory.Geometry { return s.g }

// Cache returns the column cache.
func (s *System) Cache() *cache.Cache { return s.cache }

// Tints returns the tint table.
func (s *System) Tints() *tint.Table { return s.tints }

// PageTable returns the page table.
func (s *System) PageTable() *vm.PageTable { return s.pt }

// TLB returns the TLB.
func (s *System) TLB() *vm.TLB { return s.tlb }

// Scratchpad returns the dedicated scratchpad model.
func (s *System) Scratchpad() *scratchpad.Scratchpad { return s.scratch }

// Timing returns the machine's cycle costs.
func (s *System) Timing() Timing { return s.timing }

// SetAccessObserver registers o to receive every cached access; nil
// detaches. This is the hook the adaptive column-allocation controller
// (internal/controller) rides: the machine pushes tint-attributed accesses
// out, so the controller never needs to import the machine.
func (s *System) SetAccessObserver(o AccessObserver) { s.observer = o }

// Stats snapshots all counters. The snapshot is a detached copy — value
// types all the way down, no pointers into the live machine — so it can be
// published to another goroutine (a metrics scraper, a job-status handler)
// while the simulation keeps running.
func (s *System) Stats() Stats {
	st := Stats{
		Instructions:       s.instructions,
		Cycles:             s.cycles,
		MemAccesses:        s.memAccesses,
		ScratchpadAccesses: s.scratchAcc,
		UncachedAccesses:   s.uncachedAcc,
		Cache:              s.cache.Stats(),
		TLB:                s.tlb.Stats(),
	}
	if s.l2 != nil {
		st.L2 = s.l2.cache.Stats()
		st.HasL2 = true
	}
	return st
}

// ResetStats zeroes counters without touching cache/TLB contents, so
// measurement can exclude warmup.
func (s *System) ResetStats() {
	s.instructions, s.cycles, s.memAccesses, s.scratchAcc, s.uncachedAcc = 0, 0, 0, 0, 0
	s.cache.ResetStats()
	s.tlb.ResetStats()
}

// AddCycles charges overhead cycles (e.g. context-switch cost) without
// executing instructions.
func (s *System) AddCycles(n int64) { s.cycles += n }

// Access executes one trace access (plus its think instructions) and returns
// the cycles it consumed.
func (s *System) Access(a memtrace.Access) int64 { return s.access(a, 0) }

// AccessMasked is Access with the tint-derived column mask replaced by the
// given one. This models process-granularity partitioning — the Sun patent
// scheme the paper contrasts with (§5.1): the running process's bit mask
// applies to every one of its accesses, regardless of address. A zero mask
// falls back to the tint mechanism.
func (s *System) AccessMasked(a memtrace.Access, override replacement.Mask) int64 {
	return s.access(a, override)
}

func (s *System) access(a memtrace.Access, override replacement.Mask) int64 {
	start := s.cycles
	s.instructions += int64(a.Think) + 1
	s.cycles += int64(a.Think) * int64(s.timing.NonMemInstr)
	s.memAccesses++

	// Dedicated scratchpad regions bypass the whole cache hierarchy.
	if s.scratch.Contains(a.Addr) {
		s.scratch.Note()
		s.scratchAcc++
		s.cycles += int64(s.timing.ScratchpadHit)
		s.noteEnergy(true, false, false, false, false, false)
		return s.cycles - start
	}

	pte, tlbHit := s.tlb.Lookup(a.Addr)
	if !tlbHit {
		s.cycles += int64(s.timing.TLBMiss)
	}
	if pte.Uncached {
		s.uncachedAcc++
		s.cycles += int64(s.timing.Uncached)
		s.noteEnergy(false, true, !tlbHit, false, false, false)
		return s.cycles - start
	}

	mask := s.tints.Mask(pte.Tint)
	if override != 0 {
		mask = override
	}
	var res cache.Result
	if a.Op == memtrace.Write {
		res = s.cache.Write(a.Addr, mask)
		if s.cache.Config().Write == cache.WriteThroughNoAllocate {
			s.cycles += int64(s.timing.WriteThroughStore)
		}
	} else {
		res = s.cache.Read(a.Addr, mask)
	}
	s.noteTintAccess(pte.Tint, !res.Hit)
	if s.observer != nil {
		s.observer.ObserveAccess(pte.Tint, a.Addr, !res.Hit)
	}
	s.cycles += int64(s.timing.CacheHit)
	l2Miss := false
	if !res.Hit {
		if s.l2 != nil {
			var evicted memory.Addr
			if res.Writeback {
				evicted = s.evictedAddrOf(a, res)
			}
			var cyc int64
			cyc, l2Miss = s.l2Access(a, mask, res.Writeback, evicted)
			s.cycles += cyc
		} else {
			s.cycles += int64(s.timing.MissPenalty)
			if res.Writeback {
				s.cycles += int64(s.timing.Writeback)
			}
		}
	}
	s.noteEnergy(false, false, !tlbHit, !res.Hit, s.l2 != nil, l2Miss)
	return s.cycles - start
}

// Run executes an entire trace and returns the cycles consumed.
func (s *System) Run(t memtrace.Trace) int64 {
	// Without cancellation, a cap or a resume point RunContext cannot fail.
	cycles, _ := s.RunContext(context.Background(), t, RunOptions{})
	return cycles
}

// RunOptions parameterize RunContext and Replay. Every position they
// mention — the done arguments of the callbacks, the checkpoint and
// inspection grids, Resume.Done — counts accesses from the start of the
// trace, so a resumed run reports the positions an uninterrupted one would.
type RunOptions struct {
	// CheckEvery is the cooperative-cancellation stride: the context is
	// polled and OnCheckpoint fired every CheckEvery accesses. Zero or
	// negative means DefaultCheckEvery. Small strides bound cancellation
	// latency; large ones keep the hot loop branch-free longer. Replay
	// decodes into a buffer of this many accesses.
	CheckEvery int
	// OnCheckpoint, when non-nil, receives the number of accesses executed
	// so far and a detached Stats snapshot at every checkpoint and once
	// more after the final access. It runs on the simulation goroutine;
	// publish the snapshot under your own lock if another goroutine reads
	// it.
	OnCheckpoint func(done int64, st Stats)
	// InspectEvery, with OnInspect non-nil, fires the inspection callback
	// at exact trace positions — every InspectEvery accesses, independent
	// of the CheckEvery stride, plus once after the final access when the
	// trace length is not a stride multiple. Exact positions (rather than
	// checkpoint-aligned ones) make the captured frame sequence a pure
	// function of (config, trace, InspectEvery), which is what lets the
	// inspect conformance check demand bit-identical frames from every
	// execution strategy. Zero disables inspection.
	InspectEvery int64
	// OnInspect runs on the simulation goroutine while the machine is
	// quiescent, so it may read cache contents, tint table and page table
	// directly (the inspect reducer does).
	OnInspect func(done int64, st Stats)
	// MaxAccesses, when positive, caps the number of accesses executed; a
	// longer trace fails with an error wrapping memtrace.ErrTraceTooLarge.
	// The cap is checked as each chunk of CheckEvery accesses arrives, like
	// memtrace.ReadBinaryLimit, so an adversarial stream never occupies
	// more than one chunk.
	MaxAccesses int64
	// Resume, when Resume.Done is positive, continues an interrupted run
	// from its checkpoint (see Checkpoint): the first Resume.Done accesses
	// are executed without context polls or callbacks, their cycles are
	// cross-checked against Resume.Cycles, and the run then continues with
	// the usual cadence. The returned cycles cover the whole trace.
	Resume Checkpoint
}

// DefaultCheckEvery is the RunContext cancellation stride when
// RunOptions.CheckEvery is zero.
const DefaultCheckEvery = 4096

// RunContext executes the trace like Run but cooperatively: every
// opts.CheckEvery accesses it polls ctx and reports progress, so a serving
// layer can cancel a simulation mid-trace (request timeout, client gone,
// shutdown) and scrape live statistics without touching the simulation's
// own state. Returns the cycles consumed so far and ctx.Err() if canceled.
// With opts.Resume set it picks up an interrupted run; see RunOptions.
func (s *System) RunContext(ctx context.Context, t memtrace.Trace, opts RunOptions) (int64, error) {
	_, cycles, err := s.run(ctx, func(n int) ([]memtrace.Access, error) {
		if len(t) == 0 {
			return nil, io.EOF
		}
		n = min(n, len(t))
		chunk := t[:n]
		t = t[n:]
		return chunk, nil
	}, opts)
	return cycles, err
}

// run is the one trace loop behind Run, RunContext and Replay. next yields
// the trace in chunks of at most n accesses: a short chunk only at the end
// of the trace, (nil, io.EOF) after it, and any other error together with
// the good prefix of the chunk it cut short. Chunks end on the checkpoint
// and inspection grids, so runBatch sees no bookkeeping at all.
func (s *System) run(ctx context.Context, next func(n int) ([]memtrace.Access, error), opts RunOptions) (done, cycles int64, err error) {
	every := int64(opts.CheckEvery)
	if every <= 0 {
		every = DefaultCheckEvery
	}
	var inspect int64
	if opts.OnInspect != nil && opts.InspectEvery > 0 {
		inspect = opts.InspectEvery
	}
	resume := opts.Resume.Done
	for {
		stop := (done/every + 1) * every
		if inspect > 0 {
			stop = min(stop, (done/inspect+1)*inspect)
		}
		if done < resume {
			stop = min(stop, resume)
		}
		chunk, readErr := next(int(stop - done))
		if opts.MaxAccesses > 0 && done+int64(len(chunk)) > opts.MaxAccesses {
			return done, cycles, fmt.Errorf("%w (limit %d)", memtrace.ErrTraceTooLarge, opts.MaxAccesses)
		}
		cycles += s.runBatch(chunk)
		done += int64(len(chunk))
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return done, cycles, readErr
		}
		if done <= resume {
			if done == resume && cycles != opts.Resume.Cycles {
				return done, cycles, fmt.Errorf("memsys: fast-forward to %d produced %d cycles, checkpoint recorded %d (checkpoint from a different spec or trace?)",
					resume, cycles, opts.Resume.Cycles)
			}
			continue
		}
		if inspect > 0 && done%inspect == 0 {
			opts.OnInspect(done, s.Stats())
		}
		if done%every == 0 {
			if opts.OnCheckpoint != nil {
				opts.OnCheckpoint(done, s.Stats())
			}
			if err := ctx.Err(); err != nil {
				return done, cycles, err
			}
		}
	}
	if done < resume {
		return done, cycles, fmt.Errorf("memsys: checkpoint at %d past trace end %d", resume, done)
	}
	if inspect > 0 && done%inspect != 0 {
		opts.OnInspect(done, s.Stats())
	}
	if opts.OnCheckpoint != nil {
		opts.OnCheckpoint(done, s.Stats())
	}
	return done, cycles, ctx.Err()
}

// runBatch executes one chunk and returns the cycles it consumed. It must
// stay a separate, non-inlined function: inlined into run, the values of
// run's stride bookkeeping stay live across the s.access call and are
// reloaded from the stack on every access.
//
//go:noinline
func (s *System) runBatch(chunk []memtrace.Access) int64 {
	var total int64
	for _, a := range chunk {
		total += s.access(a, 0)
	}
	return total
}

// MapRegion allocates a tint named after the region, re-tints the region's
// pages to it, and maps the tint to mask. It returns the tint for later
// remapping. This is the software-visible column-caching API.
func (s *System) MapRegion(r memory.Region, mask replacement.Mask) (tint.Tint, error) {
	id := s.tints.NewTint(r.Name)
	if err := s.tints.SetMask(id, mask); err != nil {
		return 0, err
	}
	vm.Retint(s.pt, s.tlb, r.Base, r.Size, id)
	return id, nil
}

// RemapTint changes the columns a tint maps to — the paper's cheap dynamic
// repartitioning operation.
func (s *System) RemapTint(id tint.Tint, mask replacement.Mask) error {
	return s.tints.SetMask(id, mask)
}

// Preload touches every line of region r so it is resident, charging the
// fills to the machine's cycle count. Paper §2.3: software performs a load
// on all cache-lines when dedicating a column region as scratchpad.
func (s *System) Preload(r memory.Region) int64 {
	var total int64
	for _, ln := range s.g.LinesCovering(r.Base, r.Size) {
		total += s.Access(memtrace.Access{Addr: ln * uint64(s.g.LineBytes), Op: memtrace.Read})
	}
	return total
}

// FlushCache writes back and invalidates the entire cache.
func (s *System) FlushCache() { s.cache.FlushAll() }

// InstallLine fills addr's line into the cache under mask without advancing
// simulated time — the fill path of a prefetcher whose memory traffic
// overlaps execution. Demand-access statistics are not affected; fills,
// evictions and writebacks are counted.
func (s *System) InstallLine(addr memory.Addr, mask replacement.Mask) cache.Result {
	return s.cache.Fill(addr, mask)
}
