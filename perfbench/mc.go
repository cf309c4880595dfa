package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
	"colcache/internal/vm"
)

// mc8-mixed and mc8-mixed-epoch: 8 modelled cores over a column-
// partitioned shared L2, in the geometry paperbench -corebench uses. Each
// core has a private working set four times its L1 (32 KiB in total, twice
// the L2) and reads a shared region that every core writes at a fixed
// fraction. A job builds an empty machine and runs it to completion under
// the serial stepper (Run) or the epoch stepper (RunParallel).

const (
	mcCores          = 8
	mcPerCore        = 1024 // accesses per core per job
	mcLine           = 32
	mcPage           = 4096
	mcPrivateBytes   = 4096 // 4× the 1 KiB L1
	mcSharedBytes    = 1024
	mcSharedPct      = 20 // share of accesses that go to the shared region
	mcSharedWritePct = 5  // share of shared accesses that are writes
	mcPrivateWrPct   = 30
)

func mcConfig(traces []memtrace.Trace) multicore.Config {
	return multicore.Config{
		Geometry:    memory.MustGeometry(mcLine, mcPage),
		L1:          mcL1(),
		L2:          cache.Config{LineBytes: mcLine, NumSets: 64, NumWays: 8, Policy: replacement.LRU},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      traces,
	}
}

func mcL1() cache.Config {
	return cache.Config{LineBytes: mcLine, NumSets: 16, NumWays: 2, Policy: replacement.LRU}
}

// mcL2Mask is core i's L2 partition: two of the eight columns, so cores
// i and i+4 share a pair.
func mcL2Mask(i int) replacement.Mask { return replacement.Of(2*(i%4), 2*(i%4)+1) }

const mcSharedBase = memory.Addr(0x80000)

// mcVariants is how many trace sets a run cycles its jobs through, so a
// run's figures average over several random traces instead of resting on
// one.
const mcVariants = 8

// mcTraces generates trace set v's per-core traces for seed.
func mcTraces(seed int64, v int) []memtrace.Trace {
	traces := make([]memtrace.Trace, mcCores)
	for c := range traces {
		rng := rand.New(rand.NewSource((seed*mcVariants+int64(v))*mcCores + int64(c)))
		priv := memory.Addr(c+1) << 20
		tr := make(memtrace.Trace, mcPerCore)
		for i := range tr {
			a := memtrace.Access{Think: uint32(rng.Intn(4))}
			if rng.Intn(100) < mcSharedPct {
				a.Addr = mcSharedBase + memory.Addr(rng.Intn(mcSharedBytes/4)*4)
				if rng.Intn(100) < mcSharedWritePct {
					a.Op = memtrace.Write
				}
			} else {
				a.Addr = priv + memory.Addr(rng.Intn(mcPrivateBytes/4)*4)
				if rng.Intn(100) < mcPrivateWrPct {
					a.Op = memtrace.Write
				}
			}
			tr[i] = a
		}
		traces[c] = tr
	}
	return traces
}

func buildMachine(traces []memtrace.Trace) (*multicore.Machine, error) {
	m, err := multicore.New(mcConfig(traces))
	if err != nil {
		return nil, err
	}
	for i := range traces {
		if err := m.SetL2Mask(i, mcL2Mask(i)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runMCJob runs one co-run of trace set req mod mcVariants and checks it
// against want, that set's result under the other stepper; corrupt alters
// one counter before the check.
func runMCJob(sets [][]memtrace.Trace, want []multicore.Stats, epoch, corrupt bool, tr *tracer, req uint64) job {
	v := int(req % mcVariants)
	t0 := time.Now()
	m, err := buildMachine(sets[v])
	t1 := time.Now()
	if err != nil {
		return job{problem: err.Error()}
	}
	name := "multicore.run"
	if epoch {
		name = "multicore.run_parallel"
		err = m.RunParallel(multicore.DefaultEpochCycles)
	} else {
		err = m.Run()
	}
	t2 := time.Now()
	if tr != nil {
		root := tr.add(req, 0, "job", t0, t2)
		tr.add(req, root, "multicore.build", t0, t1)
		tr.add(req, root, name, t1, t2)
	}
	j := job{ns: float64(t2.Sub(t1).Nanoseconds())}
	if err == nil {
		err = m.CheckInvariants()
	}
	st := m.Stats()
	if corrupt {
		st.Bus.Invalidations++
	}
	switch {
	case err != nil:
		j.problem = err.Error()
	case !reflect.DeepEqual(st, want[v]):
		j.problem = fmt.Sprintf("trace set %d: stats differ from the other stepper's:\n  got  %+v\n  want %+v", v, st, want[v])
	}
	return j
}

// runStepper runs one trace set to completion under one stepper on a
// fresh machine and checks its coherence invariants.
func runStepper(traces []memtrace.Trace, epoch bool) (*multicore.Machine, error) {
	m, err := buildMachine(traces)
	if err != nil {
		return nil, err
	}
	if epoch {
		err = m.RunParallel(multicore.DefaultEpochCycles)
	} else {
		err = m.Run()
	}
	if err == nil {
		err = m.CheckInvariants()
	}
	return m, err
}

func runMulticore(o options, r *report, epoch bool) error {
	sets, done, err := measureSetup(r, func() ([][]memtrace.Trace, func(), error) {
		sets := make([][]memtrace.Trace, mcVariants)
		for v := range sets {
			sets[v] = mcTraces(o.seed, v)
			if _, err := buildMachine(sets[v]); err != nil {
				return nil, nil, err
			}
		}
		return sets, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer done()

	// Every job must equal one run of the same trace set under the other
	// stepper, computed here once per set, outside the window.
	want := make([]multicore.Stats, mcVariants)
	for v := range want {
		m, err := runStepper(sets[v], !epoch)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		want[v] = m.Stats()
	}
	for start := time.Now(); time.Since(start) < warmup(o); {
		runMCJob(sets, want, epoch, false, nil, 0)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	jobs, tracedJobs, wall, peak := timedJobs(o, tr, func(tr *tracer, req uint64) job {
		return runMCJob(sets, want, epoch, o.mutate && req == 1, tr, req)
	})
	stepper := "serial stepper"
	if epoch {
		stepper = "epoch stepper"
	}
	lat := setJobMetrics(r, jobs, tracedJobs, mcCores*mcPerCore, stepper, wall, peak)
	if !o.trace {
		return nil
	}

	// Per-layer metrics, for trace set 0.
	traces, st := sets[0], want[0]
	var acc int64
	var tlb vm.TLBStats
	var l1 cache.Stats
	for _, c := range st.Cores {
		acc += c.MemAccesses
		tlb.Accesses += c.TLB.Accesses
		tlb.Hits += c.TLB.Hits
		tlb.Misses += c.TLB.Misses
		addCache(&l1, c.L1)
	}
	li := &layerInput{tlb: vm.DefaultTLBConfig}
	for _, t := range traces {
		li.streams = append(li.streams, probeStream{trace: t, l1: mcL1(), pageBytes: mcPage})
	}
	costs, err := probeLayers(r, tr, li)
	if err != nil {
		return err
	}
	setSimCounts(r, "per job", acc, tlb, l1, st.L2, st.Cycles)
	r.set("memtrace.accesses", 0, "count", "no trace decoding on this workload")
	jobNs := median(lat) * 1e6
	r.set("decomp.explained_frac", explained(costs, replacement.LRU, 0, acc, l1.Hits, l1.Misses,
		st.L2.Hits, st.L2.Misses, jobNs), "ratio", "layer cost × count / median job time; bus work is the rest")
	setOverhead(r, jobMillis(tracedJobs), lat)

	if err := probeSteps(r, tr, traces); err != nil {
		return err
	}
	var l2Miss int64
	for _, c := range st.Cores {
		l2Miss += c.L2Misses
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"bus_reads", st.Bus.Reads}, {"bus_readxs", st.Bus.ReadXs}, {"upgrades", st.Bus.Upgrades},
		{"invalidations", st.Bus.Invalidations}, {"interventions", st.Bus.Interventions},
		{"writeback_races", st.Bus.WritebackRaces}, {"l2_misses", l2Miss}, {"sim_cycles", st.Cycles},
	} {
		r.set("multicore."+c.name, float64(c.v), "count", "per job, exact")
	}
	em, err := runStepper(traces, true)
	if err != nil {
		return err
	}
	es := em.EpochStats()
	r.set("multicore.epochs", float64(es.Epochs), "count", "epoch stepper, per job")
	r.set("multicore.conflict_epochs", float64(es.ConflictEpochs), "count", "epoch stepper, per job")
	r.set("multicore.conflict_ratio", ratio(es.ConflictEpochs, es.Epochs), "ratio", "epoch stepper, per job")
	r.set("multicore.lookahead_accesses", float64(es.LookaheadAccesses), "count", "epoch stepper, per job")
	r.set("multicore.direct_accesses", float64(es.DirectAccesses), "count", "epoch stepper, per job")
	r.set("multicore.records_merged", float64(es.RecordsMerged), "count", "epoch stepper, per job")
	if epoch && es.Epochs > 0 {
		r.set("multicore.epoch_us", jobNs/1e3/float64(es.Epochs), "us", "median job time per epoch")
	}
	return finishTrace(o, r, tr)
}

// stepClasses partition what one Step did, by the first of these its
// counters show: an S→M upgrade (BusUpgr); a write miss that invalidated
// remote copies (BusRdX); a read miss a remote Modified copy served
// (BusRd with an intervention); any other miss that went to memory (L2
// miss) or hit the L2; else an L1 hit. Every L1 miss is a bus transaction
// and probes the L2, so the bus classes are the misses that also did
// coherence work.
var stepClasses = []string{"upgrade", "bus_rdx", "bus_rd", "l2_miss", "l2_hit", "l1_hit"}

// probeSteps times Step() on a fresh machine, grouped by stepClasses.
// Every fourth step is timed; the Stats snapshots that classify it are
// taken outside its span.
func probeSteps(r *report, tr *tracer, traces []memtrace.Trace) error {
	m, err := buildMachine(traces)
	if err != nil {
		return err
	}
	times := make(map[string][]float64)
	overhead := float64(clockOverhead())
	req := uint64(1)<<40 + 200
	for i := 0; ; i++ {
		if i%4 != 0 {
			more, err := m.Step()
			if err != nil {
				return err
			}
			if !more {
				break
			}
			continue
		}
		before := m.Stats()
		t0 := time.Now()
		more, err := m.Step()
		t1 := time.Now()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		after := m.Stats()
		class := classifyStep(before, after)
		tr.add(req, 0, "multicore.step."+class, t0, t1)
		times[class] = append(times[class], float64(t1.Sub(t0).Nanoseconds())-overhead)
	}
	for _, c := range stepClasses {
		r.set("multicore.step_ns."+c, median(times[c]), "ns", fmt.Sprintf("median of %d sampled steps", len(times[c])))
	}
	return nil
}

func classifyStep(a, b multicore.Stats) string {
	var l2a, l2m [2]int64
	for _, c := range a.Cores {
		l2a[0] += c.L2Accesses
		l2m[0] += c.L2Misses
	}
	for _, c := range b.Cores {
		l2a[1] += c.L2Accesses
		l2m[1] += c.L2Misses
	}
	switch {
	case b.Bus.Upgrades > a.Bus.Upgrades:
		return "upgrade"
	case b.Bus.ReadXs > a.Bus.ReadXs && b.Bus.Invalidations > a.Bus.Invalidations:
		return "bus_rdx"
	case b.Bus.Reads > a.Bus.Reads && b.Bus.Interventions > a.Bus.Interventions:
		return "bus_rd"
	case l2m[1] > l2m[0]:
		return "l2_miss"
	case l2a[1] > l2a[0]:
		return "l2_hit"
	}
	return "l1_hit"
}
