package multicore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/workloads/mpeg"
)

// benchTraces builds n per-core synthetic traces with idct-like locality:
// block sweeps with periodic re-touches, disjoint 4GB windows per core.
func benchTraces(n, accesses int) []memtrace.Trace {
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		tr := make(memtrace.Trace, accesses)
		state := uint64(i + 1)
		var addr uint64
		for k := range tr {
			// xorshift-driven mix of sequential sweeps and block re-touches
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			if k%64 == 0 {
				addr = (state * 0x9e3779b97f4a7c15) % (1 << 18)
			}
			a := memtrace.Access{Addr: uint64(i)<<32 | (addr &^ 31), Op: memtrace.Read}
			if state&7 == 0 {
				a.Op = memtrace.Write
			}
			tr[k] = a
			addr += 32
		}
		traces[i] = tr
	}
	return traces
}

func benchMachine(b *testing.B, cores, accesses int) *Machine {
	b.Helper()
	m, err := New(Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      benchTraces(cores, accesses),
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepper measures the deterministic stepper's end-to-end
// throughput: TLB, tint mask, L1 with way memoization, MSI bus, shared L2.
// ns/op is per simulated access.
func BenchmarkStepper(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			const accesses = 100000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := benchMachine(b, cores, accesses)
				b.StartTimer()
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.N *= accesses * cores // report per-access cost
		})
	}
}

// idctTiles builds cores disjoint idct traces of accesses each: core i
// replays the idct reference stream generated with seed i+1, shifted into
// its own 4GB window, as paperbench's stepper rows do.
func idctTiles(cores, accesses int) []memtrace.Trace {
	traces := make([]memtrace.Trace, cores)
	for i := range traces {
		cfg := mpeg.DefaultConfig
		cfg.Seed = int64(i + 1)
		base := mpeg.Idct(cfg).Trace
		tr := make(memtrace.Trace, accesses)
		for k := range tr {
			tr[k] = base[k%len(base)]
			tr[k].Addr += uint64(i) << 32
		}
		traces[i] = tr
	}
	return traces
}

// contendedTraces builds perfbench's mc8-mixed traffic: per core, 1024
// accesses with 0-3 think cycles; 20% go to a 1 KiB region every core
// shares (5% of them writes), the rest to a private 4 KiB region (30%
// writes).
func contendedTraces(cores int) []memtrace.Trace {
	traces := make([]memtrace.Trace, cores)
	for c := range traces {
		rng := rand.New(rand.NewSource(int64(c + 1)))
		priv := uint64(c+1) << 20
		tr := make(memtrace.Trace, 1024)
		for i := range tr {
			a := memtrace.Access{Think: uint32(rng.Intn(4))}
			if rng.Intn(100) < 20 {
				a.Addr = 0x80000 + uint64(rng.Intn(256)*4)
				if rng.Intn(100) < 5 {
					a.Op = memtrace.Write
				}
			} else {
				a.Addr = priv + uint64(rng.Intn(1024)*4)
				if rng.Intn(100) < 30 {
					a.Op = memtrace.Write
				}
			}
			tr[i] = a
		}
		traces[c] = tr
	}
	return traces
}

// BenchmarkEpochVsSerial pairs the two steppers on one 8-core machine:
// each iteration runs the serial and the epoch stepper once each, in
// alternating order, on fresh machines over the same traces. It reports
// each stepper's host ns per simulated access and speedup, the serial
// stepper's time over the epoch stepper's. On disjoint idct tiles the
// epoch stepper should win by well over 1.5x on a multi-core host; on
// mc8-mixed traffic the share check declines its speculation, so it
// should run level with the serial stepper. A run whose share check
// decides otherwise fails the benchmark.
func BenchmarkEpochVsSerial(b *testing.B) {
	const cores = 8
	cases := []struct {
		name   string
		traces []memtrace.Trace
		l2Mask func(i int) replacement.Mask
		shared bool // the share check must decline every speculation
	}{
		{"idct-disjoint", idctTiles(cores, 50000), nil, false},
		{"mc8-contended", contendedTraces(cores), func(i int) replacement.Mask { return replacement.Of(2*(i%4), 2*(i%4)+1) }, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Geometry:    memory.MustGeometry(32, 4096),
				L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2, Policy: replacement.LRU},
				L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8, Policy: replacement.LRU},
				Timing:      memsys.DefaultTiming,
				L2HitCycles: 6,
				Traces:      tc.traces,
			}
			var accesses int64
			for _, tr := range tc.traces {
				accesses += int64(len(tr))
			}
			var elapsed [2]time.Duration // serial, epoch
			for i := 0; i < b.N; i++ {
				for k := 0; k < 2; k++ {
					e := (i + k) % 2 // elapsed index: 0 serial, 1 epoch
					m := MustNew(cfg)
					if tc.l2Mask != nil {
						for c := 0; c < cores; c++ {
							if err := m.SetL2Mask(c, tc.l2Mask(c)); err != nil {
								b.Fatal(err)
							}
						}
					}
					run := m.Run
					if e == 1 {
						run = func() error { return m.RunParallel(DefaultEpochCycles) }
					}
					t0 := time.Now()
					if err := run(); err != nil {
						b.Fatal(err)
					}
					elapsed[e] += time.Since(t0)
					if es := m.EpochStats(); (es.PredictedConflicts > 0) != (e == 1 && tc.shared) || tc.shared && es.Epochs > 0 {
						b.Fatalf("share check decided wrong: %+v", es)
					}
				}
			}
			runs := float64(b.N) * float64(accesses)
			b.ReportMetric(float64(elapsed[0].Nanoseconds())/runs, "serial-ns/access")
			b.ReportMetric(float64(elapsed[1].Nanoseconds())/runs, "epoch-ns/access")
			b.ReportMetric(elapsed[0].Seconds()/elapsed[1].Seconds(), "speedup")
		})
	}
}
