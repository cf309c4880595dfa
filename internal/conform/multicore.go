package conform

import (
	"fmt"
	"math/rand"
	"reflect"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
)

// Multicore serial-equivalence conformance: the epoch-parallel stepper
// (multicore.RunParallel) claims bit-identical results to the serial stepper
// for ANY epoch length. Each MCCase draws a machine — core count, cache
// geometries, policies, epoch length, L2 partitioning, a deterministic
// mid-run remap schedule, contended and private traffic — from a seed, runs
// it through both steppers, and compares everything observable: every
// counter of every core, bus and L2 statistics, the writeback ledger, the
// complete L1 and L2 contents, and the final L2 column masks. Checks is
// itself a seeded axis: with checks on every hit becomes a barrier-merged
// note record and coherence invariants are verified live throughout, while
// checks off — the mode every benchmark and production run uses — takes the
// structurally different path where local hits are folded into record
// prefixes and unkeyed tails; both halves of the sweep end with the same
// structural invariant walk and full-state comparison.

// MCCase is one seeded serial-vs-parallel equivalence case.
type MCCase struct {
	Name      string
	Seed      int64
	Cfg       multicore.Config
	Epoch     int64              // epoch length for the parallel run
	Partition []replacement.Mask // initial per-core L2 masks (nil: unpartitioned)
	Remap     []multicore.RemapEvent
}

// mcSynthTrace builds a deterministic locality-biased read/write stream over
// [lo, hi) — the same shape the multicore invariant sweep uses.
func mcSynthTrace(rng *rand.Rand, n int, lo, hi uint64) memtrace.Trace {
	tr := make(memtrace.Trace, 0, n)
	addr := lo
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = lo + uint64(rng.Int63n(int64(hi-lo)))
		case 1:
			addr += 8
			if addr >= hi {
				addr = lo
			}
		default:
			addr = lo + (addr-lo+uint64(rng.Intn(64)))%(hi-lo)
		}
		op := memtrace.Read
		if rng.Intn(3) == 0 {
			op = memtrace.Write
		}
		tr = append(tr, memtrace.Access{Addr: addr, Op: op, Think: uint32(rng.Intn(3))})
	}
	return tr
}

// mcEpochs is the epoch-length axis: K=1 must degenerate to the serial
// stepper one access at a time; the large values exercise long lookaheads
// with many buffered records and mid-merge direct execution.
var mcEpochs = []int64{1, 3, 7, 64, 512, 4096}

// NewMCCase derives a multicore equivalence case from a seed.
func NewMCCase(seed int64) MCCase {
	rng := rand.New(rand.NewSource(seed ^ 0x6d63))
	cores := 2 + rng.Intn(3)
	lineBytes := 16 << rng.Intn(2)
	l1Sets := 4 << rng.Intn(2)
	l1Ways := 1 << rng.Intn(3)
	l2Sets := l1Sets * 2
	l2Ways := 2 << rng.Intn(2)
	policies := []replacement.Kind{replacement.LRU, replacement.TreePLRU, replacement.FIFO, replacement.Random}

	// Contended shared window interleaved with per-core private windows, so
	// every bus transaction class appears and epochs both conflict and merge.
	sharedHi := uint64(512 + rng.Intn(1024))
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		n := 128 + rng.Intn(128)
		privLo := 0x10000 * uint64(c+1)
		shared := mcSynthTrace(rng, n, 0, sharedHi)
		private := mcSynthTrace(rng, n, privLo, privLo+0x800)
		mixed := make(memtrace.Trace, 0, 2*n)
		for i := 0; i < n; i++ {
			mixed = append(mixed, shared[i], private[i])
		}
		traces = append(traces, mixed)
	}

	mc := MCCase{
		Name: fmt.Sprintf("mc-%d", seed),
		Seed: seed,
		Cfg: multicore.Config{
			Geometry: memory.MustGeometry(lineBytes, 1024),
			L1: cache.Config{
				LineBytes: lineBytes, NumSets: l1Sets, NumWays: l1Ways,
				Policy: policies[rng.Intn(len(policies))],
			},
			L2: cache.Config{
				LineBytes: lineBytes, NumSets: l2Sets, NumWays: l2Ways,
				Policy: policies[rng.Intn(len(policies))],
			},
			Timing:      memsys.DefaultTiming,
			L2HitCycles: 1 + rng.Intn(6),
			Traces:      traces,
			// Half the sweep runs checks off: per-hit note records (checks
			// on) and folded local-hit tails (checks off) are different merge
			// paths, and the latter is the one benchmarks and colserved use.
			Checks: rng.Intn(2) == 0,
		},
		Epoch: mcEpochs[rng.Intn(len(mcEpochs))],
	}

	// Half the cases partition the shared L2 per core; a third of those also
	// install a deterministic mid-run remap schedule (the paper's cheap
	// repartition, fired at exact global L2-access sequence points).
	if rng.Intn(2) == 0 && l2Ways >= cores {
		per := l2Ways / cores
		for c := 0; c < cores; c++ {
			hi := (c + 1) * per
			if c == cores-1 {
				hi = l2Ways
			}
			mc.Partition = append(mc.Partition, replacement.Range(c*per, hi))
		}
		if rng.Intn(3) == 0 {
			at := int64(20 + rng.Intn(200))
			for c := 0; c < cores; c++ {
				var rotated replacement.Mask
				for _, w := range mc.Partition[c].Ways(l2Ways) {
					rotated |= replacement.Of((w + 1) % l2Ways)
				}
				mc.Remap = append(mc.Remap, multicore.RemapEvent{
					AfterL2Accesses: at, Core: c, Mask: rotated,
				})
			}
		}
	}
	return mc
}

func mcBuild(c MCCase) (*multicore.Machine, error) {
	m, err := multicore.New(c.Cfg)
	if err != nil {
		return nil, err
	}
	for i, mask := range c.Partition {
		if err := m.SetL2Mask(i, mask); err != nil {
			return nil, err
		}
	}
	if c.Remap != nil {
		if err := m.SetRemapSchedule(c.Remap); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func mcDumpLines(ch *cache.Cache) []cache.LineState {
	cfg := ch.Config()
	out := make([]cache.LineState, 0, cfg.NumSets*cfg.NumWays)
	for s := 0; s < cfg.NumSets; s++ {
		for w := 0; w < cfg.NumWays; w++ {
			out = append(out, ch.LineAt(s, w))
		}
	}
	return out
}

// RunMCCase runs one case through both steppers and returns the epoch
// stepper's counters — which paths the case exercised — with the first
// observable divergence, or nil if the machines are identical.
func RunMCCase(c MCCase) (es multicore.EpochStats, _ *Divergence) {
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Case: c.Name, Step: -1, Detail: fmt.Sprintf(format, args...)}
	}
	serial, err := mcBuild(c)
	if err != nil {
		return es, fail("building serial machine: %v", err)
	}
	parallel, err := mcBuild(c)
	if err != nil {
		return es, fail("building parallel machine: %v", err)
	}
	if err := serial.Run(); err != nil {
		return es, fail("serial stepper: coherence violation: %v", err)
	}
	err = parallel.RunParallel(c.Epoch)
	es = parallel.EpochStats()
	if err != nil {
		return es, fail("epoch stepper (K=%d): coherence violation: %v", c.Epoch, err)
	}
	if err := serial.CheckInvariants(); err != nil {
		return es, fail("serial final invariants: %v", err)
	}
	if err := parallel.CheckInvariants(); err != nil {
		return es, fail("parallel final invariants (K=%d): %v", c.Epoch, err)
	}

	ss, sp := serial.Stats(), parallel.Stats()
	if !reflect.DeepEqual(ss, sp) {
		for i := range ss.Cores {
			if !reflect.DeepEqual(ss.Cores[i], sp.Cores[i]) {
				return es, fail("K=%d: core %d stats diverge:\nserial:   %+v\nparallel: %+v",
					c.Epoch, i, ss.Cores[i], sp.Cores[i])
			}
		}
		return es, fail("K=%d: machine stats diverge:\nserial:   bus=%+v l2=%+v ledger=%d/%d\nparallel: bus=%+v l2=%+v ledger=%d/%d",
			c.Epoch, ss.Bus, ss.L2, ss.DirtyCreated, ss.DirtyRetired,
			sp.Bus, sp.L2, sp.DirtyCreated, sp.DirtyRetired)
	}
	for i := 0; i < serial.NumCores(); i++ {
		if !reflect.DeepEqual(mcDumpLines(serial.L1(i)), mcDumpLines(parallel.L1(i))) {
			return es, fail("K=%d: core %d L1 contents diverge", c.Epoch, i)
		}
		if ms, mp := serial.L2Mask(i), parallel.L2Mask(i); ms != mp {
			return es, fail("K=%d: core %d L2 mask diverges: %s vs %s", c.Epoch, i, ms, mp)
		}
	}
	if !reflect.DeepEqual(mcDumpLines(serial.L2()), mcDumpLines(parallel.L2())) {
		return es, fail("K=%d: L2 contents diverge", c.Epoch)
	}

	// The sweep must exercise real machines: a case with no bus or L2
	// traffic wouldn't witness the equivalence it claims to.
	if ss.Bus.Reads == 0 || ss.L2.Accesses == 0 {
		return es, fail("degenerate case: no bus/L2 traffic")
	}
	return es, nil
}
