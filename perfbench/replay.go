package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/oracle"
	"colcache/internal/replacement"
	"colcache/internal/vm"
	"colcache/internal/workloads"
	"colcache/internal/workloads/mpeg"
)

// replay-mpeg: one partition trial of the paper's MPEG decoder. A job
// builds a single-core memsys machine with the paper's on-chip memory
// (2 KiB as 4 columns of 512 B, 32-byte lines), a masked L2, and each MPEG
// kernel's variables tinted to its own columns, then streams the encoded
// decode trace of one frame (dequant → plus → idct at the paper's block
// counts) through memtrace.Decoder and System.Replay. Every job starts
// with empty caches. The kernels' reference streams do not depend on the
// coefficient data the seed generates, so every seed replays the same
// addresses.

const (
	replayLine   = 32
	replayPage   = 64 // small pages so every MPEG variable is tinted on its own
	replaySets   = 16
	replayWays   = 4
	replayL2Sets = 64
	replayL2Ways = 8
	replayL2Hit  = 6
)

// replayInput is one run's generated input.
type replayInput struct {
	plan    []tintRegion   // one region per kernel variable
	trace   memtrace.Trace // one job's accesses, for the oracle and the probes
	encoded []byte         // the same accesses in the binary trace format
}

// replayInputs generates the decode trace for seed.
func replayInputs(seed int64) (*replayInput, error) {
	cfg := mpeg.DefaultConfig
	cfg.Seed = seed
	kernels := []struct {
		prog *workloads.Program
		mask replacement.Mask
	}{
		{mpeg.Dequant(cfg), replacement.Of(0)},
		{mpeg.Plus(cfg), replacement.Of(1)},
		{mpeg.Idct(cfg), replacement.Of(2, 3)},
	}
	in := &replayInput{}
	for k, kern := range kernels {
		// Every kernel allocates from the same base; give each its own
		// 1 MiB window so their variables are distinct.
		shift := memory.Addr(k+1) << 20
		for _, a := range kern.prog.Trace {
			a.Addr += shift
			in.trace = append(in.trace, a)
		}
		for _, v := range kern.prog.Vars {
			in.plan = append(in.plan, tintRegion{base: v.Base + shift, size: v.Size, mask: kern.mask})
		}
	}
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, in.trace); err != nil {
		return nil, err
	}
	in.encoded = buf.Bytes()
	return in, nil
}

func replayL1() cache.Config {
	return cache.Config{LineBytes: replayLine, NumSets: replaySets, NumWays: replayWays, Policy: replacement.LRU}
}

// buildReplaySystem assembles one empty machine with the tint plan.
func buildReplaySystem(plan []tintRegion) (*memsys.System, error) {
	g, err := memory.NewGeometry(replayLine, replayPage)
	if err != nil {
		return nil, err
	}
	sys, err := memsys.New(memsys.Config{Geometry: g, Cache: replayL1(), TLB: vm.DefaultTLBConfig, Timing: memsys.DefaultTiming})
	if err != nil {
		return nil, err
	}
	l2 := cache.Config{LineBytes: replayLine, NumSets: replayL2Sets, NumWays: replayL2Ways, Policy: replacement.LRU}
	if err := sys.EnableL2(l2, replayL2Hit, true); err != nil {
		return nil, err
	}
	for i, p := range plan {
		id := sys.Tints().NewTint(fmt.Sprintf("v%d", i))
		if err := sys.Tints().SetMask(id, p.mask); err != nil {
			return nil, err
		}
		vm.Retint(sys.PageTable(), sys.TLB(), p.base, p.size, id)
	}
	return sys, nil
}

// oracleReplay runs the job's trace through internal/oracle, built the
// way internal/conform builds its reference machine, and returns the
// counters in memsys.Stats form.
func oracleReplay(plan []tintRegion, trace memtrace.Trace) (memsys.Stats, error) {
	t := memsys.DefaultTiming
	orc, err := oracle.NewSystem(oracle.SystemConfig{
		Cache:      oracle.Config{LineBytes: replayLine, NumSets: replaySets, NumWays: replayWays, Policy: "lru"},
		PageBytes:  replayPage,
		TLBEntries: vm.DefaultTLBConfig.Entries,
		TLBWays:    vm.DefaultTLBConfig.Ways,
		Timing: oracle.Timing{
			NonMemInstr: t.NonMemInstr, CacheHit: t.CacheHit, MissPenalty: t.MissPenalty,
			Writeback: t.Writeback, ScratchpadHit: t.ScratchpadHit, Uncached: t.Uncached,
			TLBMiss: t.TLBMiss, WriteThroughStore: t.WriteThroughStore,
		},
	})
	if err != nil {
		return memsys.Stats{}, err
	}
	if err := orc.EnableL2(oracle.Config{LineBytes: replayLine, NumSets: replayL2Sets, NumWays: replayL2Ways, Policy: "lru"}, replayL2Hit, true); err != nil {
		return memsys.Stats{}, err
	}
	for i, p := range plan {
		id := uint16(i + 1) // memsys numbers new tints from 1, after the default
		orc.DefineTint(id, uint64(p.mask))
		orc.Retint(p.base, p.size, id)
	}
	for _, a := range trace {
		orc.Access(a.Addr, a.Op == memtrace.Write, a.Think)
	}
	st, l2 := orc.Stats(), orc.L2().Stats()
	return memsys.Stats{
		Instructions: st.Instructions, Cycles: st.Cycles, MemAccesses: st.MemAccesses,
		ScratchpadAccesses: st.ScratchpadAccesses, UncachedAccesses: st.UncachedAccesses,
		Cache: cache.Stats(st.Cache),
		TLB:   vm.TLBStats(st.TLB),
		L2:    cache.Stats(l2), HasL2: true,
	}, nil
}

// runReplayJob runs one trial and checks its counters against want, the
// oracle's; corrupt alters one counter before the check.
func runReplayJob(ctx context.Context, in *replayInput, want memsys.Stats, corrupt bool, tr *tracer, req uint64) job {
	t0 := time.Now()
	sys, err := buildReplaySystem(in.plan)
	t1 := time.Now()
	if err != nil {
		return job{problem: err.Error()}
	}
	n, cyc, err := sys.Replay(ctx, memtrace.NewDecoder(bytes.NewReader(in.encoded)), memsys.ReplayOptions{})
	t2 := time.Now()
	if tr != nil {
		root := tr.add(req, 0, "job", t0, t2)
		tr.add(req, root, "memsys.build", t0, t1)
		tr.add(req, root, "memsys.replay", t1, t2)
	}
	j := job{ns: float64(t2.Sub(t1).Nanoseconds())}
	st := sys.Stats()
	if corrupt {
		st.Cache.Hits++
	}
	switch {
	case err != nil:
		j.problem = err.Error()
	case n != int64(len(in.trace)) || cyc != st.Cycles:
		j.problem = fmt.Sprintf("replayed %d accesses, %d cycles; stats say %d cycles", n, cyc, st.Cycles)
	case st != want:
		j.problem = fmt.Sprintf("stats differ from the oracle:\n  got  %+v\n  want %+v", st, want)
	}
	return j
}

func runReplay(o options, r *report) error {
	in, done, err := measureSetup(r, func() (*replayInput, func(), error) {
		in, err := replayInputs(o.seed)
		if err != nil {
			return nil, nil, err
		}
		if _, err := buildReplaySystem(in.plan); err != nil {
			return nil, nil, err
		}
		return in, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer done()
	ctx := context.Background()

	// Every job's counters must equal the oracle's for the same trace and
	// tint plan, computed here once, outside the window.
	want, err := oracleReplay(in.plan, in.trace)
	if err != nil {
		return err
	}
	// Warm-up pass, discarded.
	for start := time.Now(); time.Since(start) < warmup(o); {
		runReplayJob(ctx, in, want, false, nil, 0)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	jobs, tracedJobs, wall, peak := timedJobs(o, tr, func(tr *tracer, req uint64) job {
		return runReplayJob(ctx, in, want, o.mutate && req == 1, tr, req)
	})
	lat := setJobMetrics(r, jobs, tracedJobs, len(in.trace), "Replay", wall, peak)
	if !o.trace {
		return nil
	}

	// Per-layer metrics.
	st := want
	li := &layerInput{tlb: vm.DefaultTLBConfig, plan: in.plan,
		streams: []probeStream{{trace: in.trace, l1: replayL1(), pageBytes: replayPage}}}
	costs, err := probeLayers(r, tr, li)
	if err != nil {
		return err
	}
	setSimCounts(r, "per job", st.MemAccesses, st.TLB, st.Cache, st.L2, st.Cycles)
	r.set("memtrace.accesses", float64(len(in.trace)), "count", "decoded per job")
	accessNs, err := probeAccess(tr, in)
	if err != nil {
		return err
	}
	jobNs := median(lat) * 1e6
	r.set("memsys.access_ns", accessNs, "ns", "per System.Access, no decoder")
	r.set("memsys.replay_ns", jobNs/float64(len(in.trace)), "ns", "per access in Replay (median job); minus access_ns is the chunked loop and decoder")
	r.set("decomp.explained_frac", explained(costs, replacement.LRU, int64(len(in.trace)), st.MemAccesses,
		st.Cache.Hits, st.Cache.Misses, st.L2.Hits, st.L2.Misses, jobNs), "ratio", "layer cost × count / median job time")
	setOverhead(r, jobMillis(tracedJobs), lat)
	return finishTrace(o, r, tr)
}

// probeAccess times System.Access over the job's trace on a fresh machine:
// the simulation cost without the decoder and the chunked loop.
func probeAccess(tr *tracer, in *replayInput) (float64, error) {
	var passes []float64
	for rep := 0; rep < probeReps; rep++ {
		sys, err := buildReplaySystem(in.plan)
		if err != nil {
			return 0, err
		}
		t := in.trace
		start := time.Now()
		for _, a := range t {
			sys.Access(a)
		}
		end := time.Now()
		tr.add(uint64(1)<<40+100, 0, "memsys.access", start, end)
		passes = append(passes, float64(end.Sub(start).Nanoseconds())/float64(len(t)))
	}
	return median(passes), nil
}
