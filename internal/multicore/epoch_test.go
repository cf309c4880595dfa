package multicore

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/tint"
)

// dumpLines copies every line's metadata so two machines' cache contents can
// be compared wholesale.
func dumpLines(c *cache.Cache) []cache.LineState {
	cfg := c.Config()
	out := make([]cache.LineState, 0, cfg.NumSets*cfg.NumWays)
	for s := 0; s < cfg.NumSets; s++ {
		for w := 0; w < cfg.NumWays; w++ {
			out = append(out, c.LineAt(s, w))
		}
	}
	return out
}

// requireMachinesEqual fails the test unless a and b are observably identical:
// every counter in Stats, every L1 and L2 line, and every L2 column mask.
func requireMachinesEqual(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats diverge:\nserial:   %+v\nparallel: %+v", label, sa, sb)
	}
	for i := 0; i < a.NumCores(); i++ {
		if la, lb := dumpLines(a.L1(i)), dumpLines(b.L1(i)); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s: core %d L1 contents diverge", label, i)
		}
		if ma, mb := a.L2Mask(i), b.L2Mask(i); ma != mb {
			t.Fatalf("%s: core %d L2 mask diverges: %s vs %s", label, i, ma, mb)
		}
	}
	if la, lb := dumpLines(a.L2()), dumpLines(b.L2()); !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: L2 contents diverge", label)
	}
}

// sharedConfig builds a contended machine config: every core mixes accesses
// to one shared window with a private window, guaranteeing cross-core bus
// traffic (and, for the epoch stepper, conflict rollbacks).
func sharedConfig(seed int64, cores int, checks bool) Config {
	rng := rand.New(rand.NewSource(seed))
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		n := 200 + rng.Intn(100)
		privLo := 0x10000 * uint64(c+1)
		shared := synthTrace(rng.Int63(), n, 0, 0x600)
		private := synthTrace(rng.Int63(), n, privLo, privLo+0x800)
		mixed := make(memtrace.Trace, 0, 2*n)
		for i := 0; i < n; i++ {
			mixed = append(mixed, shared[i], private[i])
		}
		traces = append(traces, mixed)
	}
	return Config{
		Geometry:    memory.MustGeometry(32, 1024),
		L1:          cache.Config{LineBytes: 32, NumSets: 8, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 4,
		Traces:      traces,
		Checks:      checks,
	}
}

// disjointConfig builds a conflict-free machine config: each core works a
// private 4GB-aligned window, so epochs always merge without rollback (the
// cores still share the L2).
func disjointConfig(seed int64, cores int, checks bool) Config {
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		lo := uint64(c+1) << 32
		traces = append(traces, synthTrace(seed+int64(c)*997, 300, lo, lo+0x1000))
	}
	cfg := sharedConfig(seed, cores, checks)
	cfg.Traces = traces
	return cfg
}

// The core equivalence claim: for any epoch length K, the epoch-parallel
// stepper produces bit-identical machines to the serial stepper — same
// counters, same cache contents — on both contended (rollback-exercising) and
// disjoint (merge-exercising) workloads, with invariant checking on and off.
// The share check would decline most speculation on the contended machines,
// so one machine runs with the check off to keep the rollback path covered
// and a second runs as shipped.
func TestEpochStepperMatchesSerial(t *testing.T) {
	epochs := []int64{1, 2, 7, 64, 1024, DefaultEpochCycles}
	if testing.Short() {
		epochs = []int64{1, 7, 1024}
	}
	builders := []struct {
		name string
		cfg  func(seed int64) Config
	}{
		{"shared-checks", func(s int64) Config { return sharedConfig(s, 3, true) }},
		{"shared-nochecks", func(s int64) Config { return sharedConfig(s, 3, false) }},
		{"disjoint-checks", func(s int64) Config { return disjointConfig(s, 4, true) }},
		{"disjoint-nochecks", func(s int64) Config { return disjointConfig(s, 4, false) }},
	}
	for _, b := range builders {
		for _, k := range epochs {
			cfg := b.cfg(42)
			serial, parallel, checked := MustNew(cfg), MustNew(cfg), MustNew(cfg)
			parallel.testAlwaysSpeculate = true
			if err := serial.Run(); err != nil {
				t.Fatalf("%s K=%d: serial: %v", b.name, k, err)
			}
			if err := parallel.RunParallel(k); err != nil {
				t.Fatalf("%s K=%d: parallel: %v", b.name, k, err)
			}
			if err := checked.RunParallel(k); err != nil {
				t.Fatalf("%s K=%d: share-checked parallel: %v", b.name, k, err)
			}
			requireMachinesEqual(t, b.name+" K="+string(rune('0'+k%10)), serial, parallel)
			requireMachinesEqual(t, b.name+" share-checked", serial, checked)
			if es := parallel.EpochStats(); es.Epochs == 0 {
				t.Fatalf("%s K=%d: epoch stepper never ran an epoch", b.name, k)
			}
		}
	}
}

// Partitioned L2 with a deterministic mid-run remap schedule: the remap fires
// at the same global L2-access sequence point in both steppers, so the
// machines must still match exactly.
func TestEpochStepperMatchesSerialWithRemap(t *testing.T) {
	cfg := sharedConfig(7, 4, true)
	sched := []RemapEvent{
		{AfterL2Accesses: 40, Core: 0, Mask: replacement.Range(2, 4)},
		{AfterL2Accesses: 40, Core: 1, Mask: replacement.Range(0, 2)},
		{AfterL2Accesses: 90, Core: 2, Mask: replacement.Of(3)},
	}
	for _, k := range []int64{1, 16, 512} {
		serial, parallel := MustNew(cfg), MustNew(cfg)
		for _, m := range []*Machine{serial, parallel} {
			for c := 0; c < 4; c++ {
				if err := m.SetL2Mask(c, replacement.Range(c, c+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.SetRemapSchedule(sched); err != nil {
				t.Fatal(err)
			}
		}
		if err := serial.Run(); err != nil {
			t.Fatalf("K=%d serial: %v", k, err)
		}
		if err := parallel.RunParallel(k); err != nil {
			t.Fatalf("K=%d parallel: %v", k, err)
		}
		requireMachinesEqual(t, "remap", serial, parallel)
	}
}

// The merge path must actually be exercised by the disjoint workload and the
// rollback path by the contended one — otherwise the equivalence test above
// proves less than it claims.
func TestEpochStatsExerciseBothPaths(t *testing.T) {
	m := MustNew(disjointConfig(3, 4, false))
	if err := m.RunParallel(256); err != nil {
		t.Fatal(err)
	}
	es := m.EpochStats()
	if es.Epochs == 0 || es.RecordsMerged == 0 {
		t.Fatalf("disjoint run merged nothing: %+v", es)
	}
	if es.ConflictEpochs != 0 {
		t.Fatalf("disjoint windows produced conflicts: %+v", es)
	}

	// Backoff reacts only to rollbacks: conflict-free traffic keeps
	// speculating in every window.
	if es.SerialWindows != 0 {
		t.Fatalf("disjoint run backed off without a conflict: %+v", es)
	}

	m = MustNew(sharedConfig(3, 3, false))
	m.testAlwaysSpeculate = true
	if err := m.RunParallel(256); err != nil {
		t.Fatal(err)
	}
	if es := m.EpochStats(); es.ConflictEpochs == 0 {
		t.Fatalf("contended run never rolled back: %+v", es)
	}
}

// runWithoutBackoff runs m on the epoch stepper with backoff and the share
// check disabled — every window speculates, as the stepper did before
// backoff existed — by clearing the backoff state at every barrier.
func runWithoutBackoff(t *testing.T, m *Machine, k int64) EpochStats {
	t.Helper()
	m.testAlwaysSpeculate = true
	if err := m.RunParallelContext(context.Background(), k, 1, func(int64) { m.backoff = backoffState{} }); err != nil {
		t.Fatal(err)
	}
	return m.EpochStats()
}

// backoffRollbacks is how many speculations the backoff schedule makes over
// windows windows when every one of them rolls back: one, then one after
// each stretch of 4, 8, 16, ... serial windows.
func backoffRollbacks(windows int64) int64 {
	n := int64(0)
	for w, stretch := int64(0), int64(backoffInitial); w < windows; stretch = min(2*stretch, backoffMax) {
		n++
		w += 1 + stretch
	}
	return n
}

// On a machine where every speculative epoch conflicts, backoff must keep
// the result bit-identical while replacing most rollbacks with plain serial
// windows, in stretches of 4, 8, 16, ... windows after consecutive
// rollbacks. The share check is off, so the window after each stretch
// speculates for real.
func TestEpochBackoffOnContendedMachine(t *testing.T) {
	const k = 256
	for _, checks := range []bool{false, true} {
		cfg := sharedConfig(7, 4, checks)
		serial, parallel, eager := MustNew(cfg), MustNew(cfg), MustNew(cfg)
		parallel.testAlwaysSpeculate = true
		if err := serial.Run(); err != nil {
			t.Fatal(err)
		}
		if err := parallel.RunParallel(k); err != nil {
			t.Fatal(err)
		}
		before := runWithoutBackoff(t, eager, k)
		requireMachinesEqual(t, "backoff", serial, parallel)
		requireMachinesEqual(t, "no backoff", serial, eager)
		if before.ConflictEpochs != before.Epochs {
			t.Fatalf("checks=%v: machine not contended, %d of %d epochs merged without backoff",
				checks, before.Epochs-before.ConflictEpochs, before.Epochs)
		}
		es := parallel.EpochStats()
		if es.SerialWindows == 0 || es.ConflictEpochs >= before.ConflictEpochs {
			t.Fatalf("checks=%v: backoff did not cut rollbacks: %+v, %d without backoff",
				checks, es, before.ConflictEpochs)
		}
		// Every window either speculates or runs serially; each rollback
		// starts a stretch twice the previous one.
		windows := before.Epochs
		if got := es.Epochs + es.SerialWindows; got != windows {
			t.Fatalf("checks=%v: %d epochs + serial windows, want %d windows", checks, got, windows)
		}
		want := backoffRollbacks(windows)
		if es.ConflictEpochs != want || want < 3 {
			t.Fatalf("checks=%v: %d rollbacks over %d windows, backoff schedule gives %d",
				checks, es.ConflictEpochs, windows, want)
		}
	}
}

// firstWindowRun runs m on the epoch stepper and returns its EpochStats as
// they stood at the first barrier, and at the end of the run.
func firstWindowRun(t *testing.T, m *Machine, k int64) (first, final EpochStats) {
	t.Helper()
	seen := false
	if err := m.RunParallelContext(context.Background(), k, 1, func(int64) {
		if !seen {
			first, seen = m.EpochStats(), true
		}
	}); err != nil {
		t.Fatal(err)
	}
	return first, m.EpochStats()
}

// The share check declines the first speculation on a contended machine —
// no lookahead runs in the first window — and takes the place of every
// rollback the backoff schedule would have paid for. On the disjoint
// machine it never fires. Either way the result is the serial stepper's.
func TestShareCheckDecides(t *testing.T) {
	const k = 256
	for _, checks := range []bool{false, true} {
		cfg := sharedConfig(7, 4, checks)
		serial, parallel, eager := MustNew(cfg), MustNew(cfg), MustNew(cfg)
		eager.testAlwaysSpeculate = true
		if err := serial.Run(); err != nil {
			t.Fatal(err)
		}
		first, es := firstWindowRun(t, parallel, k)
		eagerFirst, eagerES := firstWindowRun(t, eager, k)
		requireMachinesEqual(t, "share check", serial, parallel)
		requireMachinesEqual(t, "no share check", serial, eager)
		if first.PredictedConflicts != 1 || first.Epochs != 0 || first.LookaheadAccesses != 0 {
			t.Fatalf("checks=%v: first window speculated: %+v", checks, first)
		}
		if eagerFirst.ConflictEpochs != 1 || eagerFirst.LookaheadAccesses == 0 {
			t.Fatalf("checks=%v: without the check the first window did not roll back: %+v", checks, eagerFirst)
		}
		windows := eagerES.Epochs + eagerES.SerialWindows
		if got := es.Epochs + es.SerialWindows + es.PredictedConflicts; got != windows {
			t.Fatalf("checks=%v: %d windows with the check, %d without", checks, got, windows)
		}
		if want := backoffRollbacks(windows); es.PredictedConflicts != want || es.Epochs != 0 || eagerES.ConflictEpochs != want {
			t.Fatalf("checks=%v: %+v with the check, %d rollbacks without; schedule gives %d",
				checks, es, eagerES.ConflictEpochs, want)
		}

		cfg = disjointConfig(3, 4, checks)
		serial, parallel = MustNew(cfg), MustNew(cfg)
		if err := serial.Run(); err != nil {
			t.Fatal(err)
		}
		if _, es = firstWindowRun(t, parallel, k); es.PredictedConflicts != 0 || es.SerialWindows != 0 || es.RecordsMerged == 0 {
			t.Fatalf("checks=%v: share check fired on disjoint traffic: %+v", checks, es)
		}
		requireMachinesEqual(t, "disjoint share check", serial, parallel)
	}
}

// sharesLine walks each core only as far as a lookahead to the horizon
// could reach, and a collision in its table can hide a shared line but
// never invent one.
func TestSharesLineReachAndCollisions(t *testing.T) {
	// With DefaultTiming an access costs at least 1 + Think cycles, so core
	// 0's third access starts no earlier than cycle 52.
	far := memtrace.Trace{read(0x100), {Addr: 0x200, Think: 50}, read(0x1000)}
	m := MustNew(testConfig(far, memtrace.Trace{read(0x1000)}))
	claims := make([]lineClaim, lineClaimSlots)
	if m.sharesLine(claims, 40) {
		t.Fatal("reported a line core 0 cannot reach before the horizon")
	}
	if !m.sharesLine(claims, 100) {
		t.Fatal("missed a line both cores reach")
	}

	m = MustNew(disjointConfig(5, 4, false))
	for _, slots := range []int{1, 2, lineClaimSlots} {
		if m.sharesLine(make([]lineClaim, slots), math.MaxInt64) {
			t.Fatalf("%d-slot table reported a shared line on disjoint traces", slots)
		}
	}
}

// Machines the epoch machinery cannot serve fall back to the serial stepper
// and say why in EpochStats.Fallback: a single core, an attached observer or
// inspector, or an injected (non-snapshottable) replacement policy. The
// fallback must still produce correct results and must not count epochs.
func TestRunParallelFallsBackToSerial(t *testing.T) {
	customL2 := func(m *Machine) {
		cfg := m.l2.Config()
		l2, err := cache.NewWithPolicy(cfg, replacement.NewLRU(cfg.NumSets, cfg.NumWays))
		if err != nil {
			t.Fatal(err)
		}
		m.l2 = l2
	}
	cases := []struct {
		name  string
		cores int
		setup func(m *Machine)
		want  string
	}{
		{"single-core", 1, nil, FallbackSingleCore},
		{"observer", 2, func(m *Machine) { m.SetL2Observer(countingObserver{n: new(int64)}) }, FallbackObserver},
		{"inspector", 2, func(m *Machine) { m.SetInspector(64, func(int64) {}) }, FallbackInspector},
		{"custom-policy", 2, customL2, FallbackNotSnapshottable},
		{"epochs", 2, nil, ""},
	}
	for _, tc := range cases {
		cfg := sharedConfig(5, tc.cores, true)
		serial, parallel := MustNew(cfg), MustNew(cfg)
		if tc.setup != nil {
			tc.setup(serial)
			tc.setup(parallel)
		}
		if err := serial.Run(); err != nil {
			t.Fatal(err)
		}
		if err := parallel.RunParallel(64); err != nil {
			t.Fatal(err)
		}
		requireMachinesEqual(t, tc.name, serial, parallel)
		es := parallel.EpochStats()
		if es.Fallback != tc.want {
			t.Fatalf("%s: fallback %q, want %q", tc.name, es.Fallback, tc.want)
		}
		if ran := es.Epochs > 0; ran != (tc.want == "") {
			t.Fatalf("%s: fallback %q but epochs ran=%v: %+v", tc.name, es.Fallback, ran, es)
		}
	}
}

type countingObserver struct{ n *int64 }

func (o countingObserver) ObserveAccess(id tint.Tint, addr memory.Addr, miss bool) { *o.n++ }

// Satellite stress test: randomized epoch lengths and core counts with
// mid-run context cancellation. Cancellation lands only at epoch barriers,
// which are clean serial-equivalent states, so after a cancel the machine
// must (a) pass the full invariant walk with a balanced writeback ledger and
// (b) resume — even under a different epoch length — to a final state
// bit-identical to a serial run. The contended traffic rolls back often, so
// some cancellations land inside a backoff stretch, between two serial
// windows; the resumed run finishes that stretch. Run under -race this also
// hammers the parallel lookahead for data races.
func TestEpochCancellationStress(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	inStretch := 0
	for seed := int64(1); seed <= int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cores := 2 + rng.Intn(3)
		k1 := int64(1 + rng.Intn(300))
		k2 := int64(1 + rng.Intn(300))
		cfg := sharedConfig(seed, cores, true)

		serial, parallel := MustNew(cfg), MustNew(cfg)
		if err := serial.Run(); err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		err := parallel.RunParallelContext(ctx, k1, 32, func(done int64) {
			if done > int64(16+rng.Intn(256)) {
				cancel()
			}
		})
		cancel()
		if err != nil && err != context.Canceled {
			t.Fatalf("seed %d: cancelled run: %v", seed, err)
		}
		if err == nil && !parallel.Done() {
			t.Fatalf("seed %d: run stopped without error or completion", seed)
		}
		if err != nil && parallel.backoff.skip > 0 {
			inStretch++
		}
		// The interrupted machine must be consistent: every invariant holds
		// and the ledger balances mid-run.
		if err := parallel.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: post-cancel invariants: %v", seed, err)
		}
		// Resume with a different epoch length and compare against serial.
		if err := parallel.RunParallel(k2); err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		requireMachinesEqual(t, "stress", serial, parallel)
	}
	if inStretch == 0 {
		t.Fatalf("no seed of %d cancelled inside a backoff stretch", rounds)
	}
}

// Regression test for the direct-execution conflict hole: with checks off a
// drained core's trailing local hits are committed as one unkeyed tail, and a
// direct-executed transaction keyed inside that span must trigger a rollback
// — a predicate that only examines cores with still-pending records misses
// it, silently breaking serial equivalence in exactly the mode benchmarks
// and production runs use.
//
// The machine is hand-built so that, in a single K=256 epoch (DefaultTiming,
// L2 hit 1 cycle, direct-mapped 4-set L1s, a 1-set/2-way LRU L2):
//
//   - core 1 (victim) fills line L, then runs a fetch-underestimation gadget:
//     read A, evict it from its L1 with A2, re-read A. The lookahead's
//     pending-set estimator prices the re-miss as an L2 hit (1 cycle), but at
//     the merge A2's fill has already evicted A from the tiny L2, so the true
//     cost is 21 — the victim's true clock runs 20 cycles past its optimistic
//     clock. Its remaining 187 reads of L are local hits folded as one
//     unkeyed tail whose true serial keys reach 274, past the horizon.
//   - core 0 (writer) misses one private line, then pads with a Think=233
//     hit: its lookahead stops exactly at the horizon with one access left —
//     a write to L — and its log drains at true clock 256, so the merge
//     direct-executes the write at key 256, inside the victim's tail span.
//   - core 2 (keeper) runs the same gadget plus 208 padding hits so its
//     final read is a pending record keyed at 274 > 256, keeping the merge
//     loop alive long enough for the direct execution to happen at all.
//
// Serially the write invalidates the victim's copy of L at key 256, turning
// its last 19 hits into misses; a merge that commits them as hits diverges.
// The epoch stepper must detect the overlap and roll the epoch back.
func TestDirectExecutionConflictsWithFoldedHitTail(t *testing.T) {
	const (
		lineL = 0x1000 // victim's hit line, later written by core 0 (L1 set 0)
		lineA = 0x2040 // victim skew gadget (L1 set 1)
		lineB = 0x2140 // evicts lineA from the victim's L1 (set 1)
		lineP = 0x3040 // writer's private miss (set 1)
		lineG = 0x4040 // keeper gadget (set 1)
		lineH = 0x4140 // evicts lineG from the keeper's L1 (set 1)
	)
	thinkRead := func(addr uint64, th uint32) memtrace.Access {
		return memtrace.Access{Addr: addr, Op: memtrace.Read, Think: th}
	}
	writer := memtrace.Trace{read(lineP), thinkRead(lineP, 233), write(lineL)}
	victim := memtrace.Trace{read(lineL), read(lineA), read(lineB), read(lineA)}
	for i := 0; i < 187; i++ {
		victim = append(victim, read(lineL))
	}
	keeper := memtrace.Trace{read(lineG), read(lineH), read(lineG)}
	for i := 0; i < 208; i++ {
		keeper = append(keeper, read(lineG))
	}
	keeper = append(keeper, read(lineH))

	cfg := Config{
		Geometry:    memory.MustGeometry(64, 4096),
		L1:          cache.Config{LineBytes: 64, NumSets: 4, NumWays: 1, Policy: replacement.LRU},
		L2:          cache.Config{LineBytes: 64, NumSets: 1, NumWays: 2, Policy: replacement.LRU},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 1,
		Traces:      []memtrace.Trace{writer, victim, keeper},
	}
	serial, parallel := MustNew(cfg), MustNew(cfg)
	parallel.testAlwaysSpeculate = true
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.RunParallel(256); err != nil {
		t.Fatal(err)
	}
	es := parallel.EpochStats()
	if es.ConflictEpochs == 0 {
		t.Fatalf("the direct-executed write never tripped the tail-window conflict check: %+v", es)
	}
	requireMachinesEqual(t, "folded-tail", serial, parallel)
}

// Satellite regression test: the coherence invariant checks must see through
// the parallel stepper. A test hook corrupts one buffered bus record just
// before the barrier merge applies it; the checker has to catch the
// resulting protocol violation at the epoch barrier.
func TestParallelStepperDetectsInjectedViolations(t *testing.T) {
	// Injection 1: demote a write miss to a read miss. The lookahead left
	// the line Modified+dirty in the issuing core's L1, but the merge now
	// takes the read path — no dirtyCreated — so the writeback ledger breaks.
	cfg := disjointConfig(11, 2, true)
	m := MustNew(cfg)
	injected := false
	m.testMergeHook = func(coreIdx int, r *epochRec) {
		if !injected && r.kind == recMiss && r.isWrite {
			r.isWrite = false
			injected = true
		}
	}
	err := m.RunParallel(512)
	if !injected {
		t.Fatal("hook never saw a write miss")
	}
	if err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("corrupted write miss not caught by the ledger check: %v", err)
	}

	// Injection 2: swallow a BusUpgr — rewrite an upgrade record into a
	// plain hit note, so the merge never invalidates the remote sharers.
	// Core 1 reads the line and exits; core 0 spins on private lines long
	// enough that its eventual upgrade lands in a later epoch (no conflict,
	// so the merge path — and the hook — actually run), leaving core 1's
	// stale copy valid alongside core 0's Modified one: an SWMR violation.
	shared := uint64(0x0)
	var tr0 memtrace.Trace
	tr0 = append(tr0, read(shared))
	for i := 0; i < 300; i++ {
		tr0 = append(tr0, read(0x20), read(0x40))
	}
	tr0 = append(tr0, write(shared))
	m = MustNew(testConfig(tr0, memtrace.Trace{read(shared)}))
	injected = false
	m.testMergeHook = func(coreIdx int, r *epochRec) {
		if !injected && r.kind == recUpgrade {
			r.kind = recNote
			injected = true
		}
	}
	err = m.RunParallel(64)
	if !injected {
		t.Fatal("hook never saw an upgrade record")
	}
	if err == nil {
		t.Fatal("swallowed invalidation not caught")
	}
	if !strings.Contains(err.Error(), "SWMR") && !strings.Contains(err.Error(), "Modified") &&
		!strings.Contains(err.Error(), "ledger") && !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected violation report: %v", err)
	}
}
