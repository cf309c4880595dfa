package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"colcache/internal/memory"
	"colcache/internal/replacement"
)

func cfg4way() Config {
	return Config{LineBytes: 32, NumSets: 16, NumWays: 4}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LineBytes: 31, NumSets: 16, NumWays: 4},
		{LineBytes: 32, NumSets: 15, NumWays: 4},
		{LineBytes: 32, NumSets: 16, NumWays: 0},
		{LineBytes: 32, NumSets: 16, NumWays: 65},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := New(Config{LineBytes: 32, NumSets: 16, NumWays: 4, Policy: "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
	c := cfg4way()
	if c.SizeBytes() != 2048 {
		t.Errorf("SizeBytes=%d want 2048", c.SizeBytes())
	}
	if c.ColumnBytes() != 512 {
		t.Errorf("ColumnBytes=%d want 512", c.ColumnBytes())
	}
}

func TestHitMissBasics(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	if r := c.Read(0x100, all); r.Hit {
		t.Error("cold read hit")
	}
	if r := c.Read(0x100, all); !r.Hit {
		t.Error("second read missed")
	}
	// Same line, different offset: hit.
	if r := c.Read(0x11f, all); !r.Hit {
		t.Error("same-line read missed")
	}
	// Next line: miss.
	if r := c.Read(0x120, all); r.Hit {
		t.Error("next-line read hit")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 || s.Fills != 2 {
		t.Errorf("stats=%+v", s)
	}
	if s.HitRate() != 0.5 || s.MissRate() != 0.5 {
		t.Errorf("rates=%v,%v", s.HitRate(), s.MissRate())
	}
}

func TestConflictEvictionLRU(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	// 5 distinct lines mapping to set 0: line numbers 0,16,32,48,64.
	setStride := uint64(32 * 16)
	for i := uint64(0); i < 5; i++ {
		c.Read(i*setStride, all)
	}
	// Line 0 was LRU, must be gone; line 16*32 resident.
	if _, hit := c.Probe(0); hit {
		t.Error("LRU line survived 5th fill")
	}
	if _, hit := c.Probe(setStride); !hit {
		t.Error("second line evicted instead of LRU")
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions=%d want 1", got)
	}
}

func TestColumnIsolation(t *testing.T) {
	// Two streams with disjoint masks must never evict each other.
	c := MustNew(cfg4way())
	maskA := replacement.Of(0, 1)
	maskB := replacement.Of(2, 3)
	setStride := uint64(32 * 16)

	// Stream A warms two lines per set into columns 0-1.
	c.Read(0, maskA)
	c.Read(setStride, maskA)
	// Stream B thrashes set 0 with many lines, masked to columns 2-3.
	for i := uint64(2); i < 50; i++ {
		c.Read(i*setStride+0x100000, maskB)
	}
	// A's lines must still be resident.
	if _, hit := c.Probe(0); !hit {
		t.Error("column-isolated line 0 evicted by other partition")
	}
	if _, hit := c.Probe(setStride); !hit {
		t.Error("column-isolated line 1 evicted by other partition")
	}
	// And all of B's residency is inside its columns.
	if n := c.ResidentInColumns(maskB); n > 2*16 {
		t.Errorf("partition B holds %d lines, exceeds its capacity", n)
	}
}

func TestGracefulRepartitioning(t *testing.T) {
	// Paper §2.1: after remapping, a line resident in its old column is
	// still found by associative search, at full hit speed.
	c := MustNew(cfg4way())
	c.Read(0x40, replacement.Of(0)) // fill into column 0
	if w, hit := c.Probe(0x40); !hit || w != 0 {
		t.Fatalf("fill went to way %d, hit=%v", w, hit)
	}
	// Now the page is remapped to column 3 — lookup must still hit in col 0.
	if r := c.Read(0x40, replacement.Of(3)); !r.Hit || r.Way != 0 {
		t.Errorf("remapped lookup: %+v", r)
	}
	// After invalidation, the refetch lands in the new column.
	c.Invalidate(0x40)
	if r := c.Read(0x40, replacement.Of(3)); r.Hit || r.Way != 3 {
		t.Errorf("refetch after invalidate: %+v", r)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	setStride := uint64(32 * 16)
	c.Write(0, all) // dirty line
	for i := uint64(1); i <= 4; i++ {
		c.Read(i*setStride, all) // force eviction of dirty line
	}
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks=%d want 1", s.Writebacks)
	}
}

func TestWriteHitDirties(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	c.Read(0, all)
	c.Write(0, all) // write hit dirties
	c.FlushAll()
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("flush writebacks=%d want 1", got)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	cfg := cfg4way()
	cfg.Write = WriteThroughNoAllocate
	c := MustNew(cfg)
	all := replacement.All(4)
	if r := c.Write(0, all); r.Hit || r.Way != -1 || r.Filled {
		t.Errorf("WT miss allocated: %+v", r)
	}
	if c.ResidentLines() != 0 {
		t.Error("WT miss left a resident line")
	}
	// Write hit does not dirty under write-through.
	c.Read(0x1000, all)
	c.Write(0x1000, all)
	c.FlushAll()
	if got := c.Stats().Writebacks; got != 0 {
		t.Errorf("WT produced %d writebacks", got)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	c.Read(0, all)
	c.Read(0x1000, all)
	if !c.Invalidate(0) {
		t.Error("Invalidate missed resident line")
	}
	if c.Invalidate(0) {
		t.Error("Invalidate hit absent line")
	}
	if c.ResidentLines() != 1 {
		t.Errorf("resident=%d want 1", c.ResidentLines())
	}
	set, _ := c.SetTagOf(0x1000)
	c.InvalidateWay(set, c.WayOf(0x1000))
	if _, hit := c.Probe(0x1000); hit || c.ResidentLines() != 0 {
		t.Error("InvalidateWay left its line resident")
	}
	if r := c.Read(0x1000, all); r.Hit {
		t.Error("read after InvalidateWay hit")
	}
	c.FlushAll()
	if c.ResidentLines() != 0 {
		t.Error("FlushAll left residents")
	}
}

func TestWayOf(t *testing.T) {
	c := MustNew(cfg4way())
	if c.WayOf(0) != -1 {
		t.Error("WayOf on empty cache")
	}
	c.Read(0, replacement.Of(2))
	if c.WayOf(0) != 2 {
		t.Errorf("WayOf=%d want 2", c.WayOf(0))
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	setStride := uint64(32 * 16)
	c.Read(0, all)
	c.Read(setStride, all)
	before := c.Stats()
	c.Probe(0)
	c.Probe(setStride)
	if c.Stats() != before {
		t.Error("Probe changed stats")
	}
	// Probing the LRU line must not rescue it from eviction.
	for i := uint64(2); i <= 4; i++ {
		c.Read(i*setStride, all)
	}
	if _, hit := c.Probe(0); hit {
		t.Error("probe refreshed LRU state")
	}
}

// Property: with the all-columns mask, a column cache is exactly a standard
// set-associative cache (same hits/misses for any access sequence) — the
// masked cache run against a reference model simulated with explicit LRU
// lists.
func TestFullMaskEquivalenceProperty(t *testing.T) {
	type refSet struct{ lines []uint64 } // front = MRU
	f := func(seq []uint16) bool {
		const numSets, numWays, lineBytes = 4, 4, 16
		c := MustNew(Config{LineBytes: lineBytes, NumSets: numSets, NumWays: numWays})
		ref := make([]refSet, numSets)
		all := replacement.All(numWays)
		for _, v := range seq {
			addr := uint64(v) * 8
			ln := addr / lineBytes
			set := int(ln % numSets)
			// Reference LRU.
			refHit := false
			for i, l := range ref[set].lines {
				if l == ln {
					refHit = true
					copy(ref[set].lines[1:i+1], ref[set].lines[:i])
					ref[set].lines[0] = ln
					break
				}
			}
			if !refHit {
				if len(ref[set].lines) < numWays {
					ref[set].lines = append([]uint64{ln}, ref[set].lines...)
				} else {
					copy(ref[set].lines[1:], ref[set].lines[:numWays-1])
					ref[set].lines[0] = ln
				}
			}
			if got := c.Read(addr, all); got.Hit != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: partition isolation — accesses restricted to disjoint masks
// never evict each other's lines, for random interleavings.
func TestPartitionIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := MustNew(Config{LineBytes: 16, NumSets: 8, NumWays: 4})
		maskA, maskB := replacement.Of(0), replacement.Of(1, 2, 3)
		residentA := make(map[uint64]bool)
		for i := 0; i < 2000; i++ {
			if r.Intn(4) == 0 {
				// Partition A touches one of 8 hot lines (fits its column).
				addr := uint64(r.Intn(8)) * 16
				c.Read(addr, maskA)
				residentA[addr/16] = true
			} else {
				c.Read(uint64(r.Intn(1<<14))+1<<20, maskB)
			}
		}
		for ln := range residentA {
			if _, hit := c.Probe(ln * 16); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsStringNonEmpty(t *testing.T) {
	c := MustNew(cfg4way())
	c.Read(0, replacement.All(4))
	if c.Stats().String() == "" {
		t.Error("empty stats string")
	}
	if (WriteBackAllocate).String() == (WriteThroughNoAllocate).String() {
		t.Error("write policy strings collide")
	}
	if WritePolicy(9).String() != "unknown" {
		t.Error("unknown write policy string")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := MustNew(cfg4way())
	c.Read(0, replacement.All(4))
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if r := c.Read(0, replacement.All(4)); !r.Hit {
		t.Error("contents lost on ResetStats")
	}
}

func TestGeometryInterop(t *testing.T) {
	// The cache's internal line indexing must agree with memory.Geometry.
	g := memory.MustGeometry(32, 4096)
	c := MustNew(cfg4way())
	addr := uint64(0xabcd)
	c.Read(addr, replacement.All(4))
	if _, hit := c.Probe(g.LineBase(addr)); !hit {
		t.Error("line base not resident after access inside line")
	}
}

func TestFillInstallsWithoutDemandStats(t *testing.T) {
	c := MustNew(cfg4way())
	res := c.Fill(0x100, replacement.Of(2))
	if res.Hit || !res.Filled || res.Way != 2 {
		t.Errorf("fill result=%+v", res)
	}
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 || s.Fills != 1 {
		t.Errorf("stats=%+v", s)
	}
	// Refill of a resident line is a no-op hit.
	res = c.Fill(0x100, replacement.Of(3))
	if !res.Hit || res.Filled {
		t.Errorf("refill result=%+v", res)
	}
	if c.Stats().Fills != 1 {
		t.Error("refill counted")
	}
}

func TestFillEvictsAndWritesBack(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	setStride := uint64(32 * 16)
	c.Write(0, all) // dirty line in set 0, some way
	w := c.WayOf(0)
	// Fill three more lines of set 0 into the other ways, then one more
	// into the dirty line's way specifically.
	c.Fill(setStride, replacement.Of((w+1)%4))
	c.Fill(2*setStride, replacement.Of((w+2)%4))
	res := c.Fill(3*setStride, replacement.Of(w))
	if !res.Evicted || !res.Writeback {
		t.Errorf("fill over dirty line: %+v", res)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks=%d", c.Stats().Writebacks)
	}
}

func TestConfigAccessor(t *testing.T) {
	c := MustNew(cfg4way())
	if got := c.Config(); got.NumWays != 4 || got.Policy != replacement.LRU {
		t.Errorf("Config=%+v", got)
	}
}

func TestRatesOnEmptyStats(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.HitRate() != 0 {
		t.Error("empty rates nonzero")
	}
}

func TestLineAtAndSnapshotSets(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	c.Read(0, all)   // set 0
	c.Write(32, all) // set 1, dirty under write-back
	before := c.Stats()

	l := c.LineAt(1, 0)
	if !l.Valid || !l.Dirty {
		t.Fatalf("LineAt(1,0) = %+v, want a valid dirty line", l)
	}
	if c.LineAt(0, 1).Valid {
		t.Fatal("LineAt(0,1) claims a line that was never filled")
	}
	if c.Stats() != before {
		t.Fatal("inspection perturbed statistics")
	}

	snap := c.SnapshotSets()
	if len(snap) != cfg4way().NumSets || len(snap[0]) != cfg4way().NumWays {
		t.Fatalf("snapshot shape %dx%d", len(snap), len(snap[0]))
	}
	if !snap[1][0].Valid || !snap[1][0].Dirty {
		t.Fatalf("snapshot[1][0] = %+v", snap[1][0])
	}
	// The snapshot is detached: later cache activity must not show through,
	// and mutating it must not reach the cache.
	tag := snap[0][0].Tag
	snap[0][0].Tag = ^uint64(0)
	c.Read(64, all)
	if got := c.LineAt(0, 0).Tag; got != tag {
		t.Fatalf("snapshot mutation reached the cache: tag %#x", got)
	}
	if snap[2][0].Valid {
		t.Fatal("snapshot picked up an access made after it was taken")
	}
}

func TestSnapshotSetsInto(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	c.Read(0, all)
	c.Write(32, all)

	// Matches the allocating variant exactly.
	want := c.SnapshotSets()
	var buf [][]LineState
	buf = c.SnapshotSetsInto(buf)
	if len(buf) != len(want) {
		t.Fatalf("shape: got %d sets, want %d", len(buf), len(want))
	}
	for s := range want {
		for w := range want[s] {
			if buf[s][w] != want[s][w] {
				t.Fatalf("set %d way %d: got %+v, want %+v", s, w, buf[s][w], want[s][w])
			}
		}
	}

	// Detached: later cache activity does not show through.
	c.Read(64, all)
	if buf[2][0].Valid {
		t.Fatal("snapshot picked up an access made after it was taken")
	}

	// Refilling a warm buffer reflects the new state and reuses the rows.
	row0 := &buf[0][0]
	buf = c.SnapshotSetsInto(buf)
	if !buf[2][0].Valid {
		t.Fatal("refill missed the line cached after the first capture")
	}
	if row0 != &buf[0][0] {
		t.Fatal("refill reallocated rows for an identically shaped cache")
	}

	// The whole point: steady-state capture must not allocate.
	if n := testing.AllocsPerRun(100, func() { buf = c.SnapshotSetsInto(buf) }); n != 0 {
		t.Fatalf("SnapshotSetsInto allocated %.1f times per call on a warm buffer", n)
	}
}

func TestNewWithPolicy(t *testing.T) {
	if _, err := NewWithPolicy(cfg4way(), nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := cfg4way()
	bad.NumSets = 3 // not a power of two
	if _, err := NewWithPolicy(bad, replacement.NewLRU(3, 4)); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	// A cache built through the seam behaves identically to New with the
	// same policy kind.
	pol := replacement.NewLRU(cfg4way().NumSets, cfg4way().NumWays)
	a, err := NewWithPolicy(cfg4way(), pol)
	if err != nil {
		t.Fatal(err)
	}
	b := MustNew(cfg4way())
	all := replacement.All(4)
	for i := uint64(0); i < 200; i++ {
		addr := memory.Addr((i * 2654435761) % 4096)
		ra := a.Read(addr, all)
		rb := b.Read(addr, all)
		if ra != rb {
			t.Fatalf("access %d: NewWithPolicy cache %+v, New cache %+v", i, ra, rb)
		}
	}
}

// TestFlatPoliciesMatchReference drives every built-in policy kind through
// the flat fast path and through the replacement-package reference injected
// via NewWithPolicy, with the same randomized stream of reads, writes,
// column-restricted masks, invalidates, and whole-cache flushes. Any
// divergence in per-access results or final line state is a flat-path bug.
func TestFlatPoliciesMatchReference(t *testing.T) {
	cfg := cfg4way()
	mk := map[replacement.Kind]func() replacement.Policy{
		replacement.LRU:      func() replacement.Policy { return replacement.NewLRU(cfg.NumSets, cfg.NumWays) },
		replacement.TreePLRU: func() replacement.Policy { return replacement.NewTreePLRU(cfg.NumSets, cfg.NumWays) },
		replacement.FIFO:     func() replacement.Policy { return replacement.NewFIFO(cfg.NumSets, cfg.NumWays) },
		replacement.Random:   func() replacement.Policy { return replacement.NewRandom(cfg.NumSets, cfg.NumWays, randomSeed) },
	}
	masks := []replacement.Mask{
		replacement.All(cfg.NumWays),
		replacement.Mask(0b0011),
		replacement.Mask(0b1100),
		replacement.Mask(0b0110),
		0, // malformed: must widen to all ways
	}
	for kind, ref := range mk {
		t.Run(string(kind), func(t *testing.T) {
			c := cfg
			c.Policy = kind
			flat := MustNew(c)
			oracle, err := NewWithPolicy(cfg, ref())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 4000; i++ {
				addr := memory.Addr(rng.Intn(256) * int(cfg.LineBytes))
				mask := masks[rng.Intn(len(masks))]
				var rf, ro Result
				switch rng.Intn(8) {
				case 0:
					rf.Hit = flat.Invalidate(addr)
					ro.Hit = oracle.Invalidate(addr)
				case 1:
					flat.FlushAll()
					oracle.FlushAll()
				case 2, 3:
					rf = flat.Write(addr, mask)
					ro = oracle.Write(addr, mask)
				default:
					rf = flat.Read(addr, mask)
					ro = oracle.Read(addr, mask)
				}
				if rf != ro {
					t.Fatalf("%s step %d addr %#x mask %04b: flat %+v, reference %+v",
						kind, i, addr, mask, rf, ro)
				}
			}
			if flat.Stats() != oracle.Stats() {
				t.Fatalf("%s stats diverged: flat %+v, reference %+v", kind, flat.Stats(), oracle.Stats())
			}
			fs, os := flat.SnapshotSets(), oracle.SnapshotSets()
			for s := range fs {
				for w := range fs[s] {
					if fs[s][w] != os[s][w] {
						t.Fatalf("%s line (%d,%d): flat %+v, reference %+v", kind, s, w, fs[s][w], os[s][w])
					}
				}
			}
		})
	}
}

// TestPLRUGeometry covers the tree-PLRU constructor constraints and the
// degenerate single-way tree (touch must be a no-op, victim is way 0).
func TestPLRUGeometry(t *testing.T) {
	bad := Config{LineBytes: 32, NumSets: 8, NumWays: 3, Policy: replacement.TreePLRU}
	if _, err := New(bad); err == nil {
		t.Fatal("tree PLRU accepted 3 ways")
	}
	one := MustNew(Config{LineBytes: 32, NumSets: 8, NumWays: 1, Policy: replacement.TreePLRU})
	all := replacement.All(1)
	one.Read(0, all)
	one.Read(0, all) // hit: exercises the single-way touch early-return
	if r := one.Read(0x100, all); !r.Evicted || r.Way != 0 {
		t.Fatalf("single-way eviction: %+v", r)
	}
}

// TestLineAccessors covers the per-line seams a coherence controller uses:
// aux state, dirty override, and the set/tag <-> address index math.
func TestLineAccessors(t *testing.T) {
	c := MustNew(cfg4way())
	all := replacement.All(4)
	addr := memory.Addr(0x7e0)
	r := c.Read(addr, all)
	set, tag := c.SetTagOf(addr)
	if got := c.AddrOfTag(set, tag); got != addr&^memory.Addr(c.Config().LineBytes-1) {
		t.Fatalf("AddrOfTag(%d, %#x) = %#x, want line base of %#x", set, tag, got, addr)
	}
	if c.AuxAt(set, r.Way) != 0 {
		t.Fatal("fresh line has nonzero aux")
	}
	c.SetAux(set, r.Way, 7)
	if c.AuxAt(set, r.Way) != 7 {
		t.Fatal("aux did not stick")
	}
	c.SetLineDirty(set, r.Way, true)
	if st := c.LineAt(set, r.Way); !st.Dirty || st.Aux != 7 {
		t.Fatalf("line state %+v after overrides", st)
	}
	c.SetLineDirty(set, r.Way, false)
	if c.LineAt(set, r.Way).Dirty {
		t.Fatal("dirty override did not clear")
	}
	// Invalidate zeroes aux with the line.
	if !c.Invalidate(addr) {
		t.Fatal("resident line not invalidated")
	}
	if c.AuxAt(set, r.Way) != 0 {
		t.Fatal("aux survived invalidate")
	}
}
