package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"colcache/internal/cache"
	"colcache/internal/inspect"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/workloads/mpeg"
)

// Core benchmark: the simulator's throughput record, which CI gates on
// (BENCH_CORE.json). Four measurements of the flat-state hot path:
//
//   - the serial multicore stepper's simulated-cycles-per-second at 1/2/4/8
//     cores. It arbitrates every single access (an O(cores) scan per
//     access), so its throughput falls as cores are added;
//   - the epoch-parallel stepper (multicore.RunParallel) on the identical
//     workload. It executes each core's window in a tight private loop and
//     pays arbitration only per buffered bus record, so its results are
//     bit-identical at a fraction of the cost, and the speedup over
//     per-access arbitration is itself a gated number;
//   - the serial stepper with a live frame capture attached, paired with an
//     uninstrumented serial run, so the capture's overhead is gated;
//   - the chunked binary-trace replay's accesses-per-second through memsys,
//     covering the decoder → batch → access pipeline.
//
// Every row is a best-of-Reps: wall-clock benchmarks on shared CI runners
// see multi-x noise from neighbors, and the maximum over a few repetitions
// estimates the machine's actual capability far more stably than a mean.

// minParallelAdvantage is the structural floor on the epoch stepper at the
// largest measured core count: parallel cycles/sec must beat the serial
// stepper by at least this factor. Even on a single-vCPU host (no lookahead
// overlap at all) eliminating the serial stepper's per-access O(cores)
// arbitration scan buys well over this; on real multicore hosts the margin
// is far larger. The floor catches the epoch stepper silently degrading to
// per-access serial execution without being tuned to any one machine — so
// it sits well below the ~1.45x a single-vCPU baseline measures, leaving
// room for scheduler noise on throttled shared runners that best-of-reps
// cannot fully absorb, while still failing hard on a true degradation
// (which lands at 1.0x or below).
const minParallelAdvantage = 1.05

// minInspectThroughput is the structural floor on the inspect-on row: the
// serial stepper with a frame capture attached at the default stride must
// keep at least this fraction of the uninstrumented serial stepper's
// throughput, measured in the same run on the same host. The capture is
// allocation-free at steady state and amortized over thousands of
// accesses per frame, so real degradations (per-access work leaking into
// the capture path, a stride bug firing every access) land far below it.
const minInspectThroughput = 0.95

// CoreBench is the committed benchmark snapshot.
type CoreBench struct {
	Reps            int             `json:"reps"`                      // repetitions per row; best kept
	Stepper         []ScalingResult `json:"stepper"`                   // serial rows
	StepperParallel []ScalingResult `json:"stepperParallel,omitempty"` // epoch-parallel rows
	StepperInspect  []ScalingResult `json:"stepperInspect,omitempty"`  // serial + frame capture at the default stride
	// InspectOverheadRatio is the best paired inspect/serial throughput
	// ratio: each rep measures both steppers back to back and the maximum
	// ratio over reps is kept, so common-mode host noise (frequency
	// scaling, noisy neighbors) cancels out of the overhead gate.
	InspectOverheadRatio float64     `json:"inspectOverheadRatio,omitempty"`
	Replay               ReplayBench `json:"replay"`
}

// ScalingResult is one stepper row: one core count's throughput.
type ScalingResult struct {
	Cores        int     `json:"cores"`
	Parallel     bool    `json:"parallel,omitempty"`     // measured with the epoch-parallel stepper
	EpochCycles  int64   `json:"epochCycles,omitempty"`  // epoch length K used when Parallel
	InspectEvery int64   `json:"inspectEvery,omitempty"` // frame-capture stride when inspected
	Accesses     int64   `json:"accesses"`               // total trace accesses simulated
	SimCycles    int64   `json:"simCycles"`              // makespan of the co-run
	WallSeconds  float64 `json:"wallSeconds"`            // host time for the Run
	CyclesPerSec float64 `json:"cyclesPerSec"`           // SimCycles / WallSeconds
	// SerialWindows counts the epoch stepper's conflict-backoff windows;
	// on these disjoint-window traces nothing conflicts, so it stays 0.
	SerialWindows int64 `json:"serialWindows,omitempty"`
}

// ReplayBench measures the streaming binary-replay pipeline.
type ReplayBench struct {
	Accesses       int64   `json:"accesses"`
	WallSeconds    float64 `json:"wallSeconds"`
	AccessesPerSec float64 `json:"accessesPerSec"`
}

// DefaultInspectStride is the frame-capture stride the inspect-on
// benchmark row uses, and the stride the service documentation recommends
// as a starting point. The stepper simulates tens of millions of accesses
// per second, so 64Ki accesses per frame still yields hundreds of frames
// per second — far beyond what a live heatmap needs — while amortizing
// the ~tens-of-microseconds capture (occupancy reduction + JSON encoding)
// to well under the 5% overhead budget the benchmark gates.
const DefaultInspectStride = 65536

// stepperKind selects what measureStepper times.
type stepperKind int

const (
	serialStepper  stepperKind = iota // Machine.Run
	epochStepper                      // Machine.RunParallel at multicore.DefaultEpochCycles
	inspectStepper                    // Machine.Run with a frame capture every DefaultInspectStride accesses
)

// scalingTrace builds core i's benchmark trace: the idct reference stream
// (per-core seed) tiled to the requested length in a disjoint 4GB address
// window.
func scalingTrace(i, accesses int) memtrace.Trace {
	cfg := mpeg.DefaultConfig
	cfg.Seed = int64(i + 1)
	base := mpeg.Idct(cfg).Trace
	tr := make(memtrace.Trace, accesses)
	shift := uint64(i) << 32
	for k := range tr {
		tr[k] = base[k%len(base)]
		tr[k].Addr += shift
	}
	return tr
}

// measureStepper times one run of the n-core benchmark machine, where core
// i replays scalingTrace(i, accessesPerCore), so the per-core work is
// identical across machine sizes. The inspect kind's capture mirrors the
// service's inline cost — occupancy reduction into a reused frame plus
// JSON encoding — so its row shows the real overhead a colserved
// -inspect-every deployment pays. It runs the same loop as the serial kind
// (Run is RunContext without a deadline), so the inspect/serial ratio
// isolates the capture cost.
func measureStepper(kind stepperKind, n, accessesPerCore int) (ScalingResult, error) {
	if n < 1 {
		return ScalingResult{}, fmt.Errorf("experiments: stepper benchmark needs ≥1 core, got %d", n)
	}
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		traces[i] = scalingTrace(i, accessesPerCore)
	}
	m, err := multicore.New(multicore.Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      traces,
	})
	if err != nil {
		return ScalingResult{}, err
	}
	r := ScalingResult{Cores: n, Accesses: int64(n) * int64(accessesPerCore)}
	run := m.Run
	var encoded int64
	switch kind {
	case epochStepper:
		r.Parallel, r.EpochCycles = true, multicore.DefaultEpochCycles
		run = func() error { return m.RunParallel(multicore.DefaultEpochCycles) }
	case inspectStepper:
		r.InspectEvery = DefaultInspectStride
		red := inspect.NewMachineReducer(m, inspect.WindowOwner(n, 32))
		var frame inspect.Frame
		m.SetInspector(r.InspectEvery, func(done int64) {
			red.Reduce(&frame, done, false)
			if b, err := json.Marshal(&frame); err == nil {
				encoded += int64(len(b))
			}
		})
	}
	// Trace construction allocates tens of megabytes; collect now so a
	// background mark phase does not steal CPU inside the timed window.
	runtime.GC()
	start := time.Now()
	if err := run(); err != nil {
		return ScalingResult{}, err
	}
	r.WallSeconds = time.Since(start).Seconds()
	r.SimCycles = m.Stats().Cycles
	if r.WallSeconds > 0 {
		r.CyclesPerSec = float64(r.SimCycles) / r.WallSeconds
	}
	if kind == epochStepper {
		r.SerialWindows = m.EpochStats().SerialWindows
	}
	if kind == inspectStepper && encoded == 0 {
		return ScalingResult{}, fmt.Errorf("experiments: inspect row captured no frames")
	}
	return r, nil
}

// RunCoreBench measures the stepper at each core count and the streaming
// replay pipeline, keeping the best of reps repetitions per row.
func RunCoreBench(coreCounts []int, accessesPerCore, reps int) (*CoreBench, error) {
	if reps < 1 {
		reps = 1
	}
	out := &CoreBench{Reps: reps}
	for _, kind := range []stepperKind{serialStepper, epochStepper} {
		for _, n := range coreCounts {
			if kind == epochStepper && n < 2 {
				continue // a 1-core machine falls back to the serial stepper
			}
			var best ScalingResult
			for r := 0; r < reps; r++ {
				row, err := measureStepper(kind, n, accessesPerCore)
				if err != nil {
					return nil, err
				}
				if row.CyclesPerSec > best.CyclesPerSec {
					best = row
				}
			}
			if kind == epochStepper {
				out.StepperParallel = append(out.StepperParallel, best)
			} else {
				out.Stepper = append(out.Stepper, best)
			}
		}
	}
	// One inspect-on row at the largest core count: the capture overhead is
	// per-frame, not per-core, so one machine size gates it. The overhead
	// ratio is measured pairwise — an uninstrumented serial run immediately
	// before each inspect run — because on shared hosts the machine's speed
	// drifts by integer factors between rows, so comparing against the
	// separately-timed serial row above would gate host noise, not capture
	// cost. The best per-rep ratio is kept: noise only ever makes a pair
	// look worse, never better, so the maximum converges on the true ratio.
	// Each pair costs well under 100ms, so a higher floor of pairs buys the
	// ratio's stability for free.
	if n := coreCounts[len(coreCounts)-1]; n >= 1 {
		pairs := 2 * reps
		if pairs < 6 {
			pairs = 6
		}
		var best ScalingResult
		for r := 0; r < pairs; r++ {
			ser, err := measureStepper(serialStepper, n, accessesPerCore)
			if err != nil {
				return nil, err
			}
			ins, err := measureStepper(inspectStepper, n, accessesPerCore)
			if err != nil {
				return nil, err
			}
			if ins.CyclesPerSec > best.CyclesPerSec {
				best = ins
			}
			if ser.CyclesPerSec > 0 {
				if ratio := ins.CyclesPerSec / ser.CyclesPerSec; ratio > out.InspectOverheadRatio {
					out.InspectOverheadRatio = ratio
				}
			}
		}
		out.StepperInspect = append(out.StepperInspect, best)
	}
	replay, err := runReplayBench(int64(accessesPerCore), reps)
	if err != nil {
		return nil, err
	}
	out.Replay = replay
	return out, nil
}

// runReplayBench streams an encoded idct-derived trace through memsys via
// the chunked decoder and reports the best accesses-per-second of reps runs.
func runReplayBench(accesses int64, reps int) (ReplayBench, error) {
	tr := scalingTrace(0, int(accesses))
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		return ReplayBench{}, err
	}
	data := buf.Bytes()
	best := ReplayBench{Accesses: accesses}
	for r := 0; r < reps; r++ {
		sys, err := memsys.New(memsys.Config{
			Geometry: memory.MustGeometry(32, 4096),
			Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
			Timing:   memsys.DefaultTiming,
		})
		if err != nil {
			return ReplayBench{}, err
		}
		start := time.Now()
		done, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
			memsys.ReplayOptions{})
		wall := time.Since(start).Seconds()
		if err != nil {
			return ReplayBench{}, err
		}
		if done != accesses {
			return ReplayBench{}, fmt.Errorf("experiments: replay bench ran %d of %d accesses", done, accesses)
		}
		if wall > 0 && float64(done)/wall > best.AccessesPerSec {
			best.WallSeconds = wall
			best.AccessesPerSec = float64(done) / wall
		}
	}
	return best, nil
}

// CompareCoreBench checks a fresh run against the committed baseline and
// returns one problem string per row whose throughput regressed by more
// than tolerance (a fraction: 0.25 fails below 75% of the baseline).
// Rows missing from either side are reported too — a gate that silently
// skips rows is not a gate.
func CompareCoreBench(current, baseline *CoreBench, tolerance float64) []string {
	problems := compareRows("serial", current.Stepper, baseline.Stepper, tolerance)
	problems = append(problems,
		compareRows("parallel", current.StepperParallel, baseline.StepperParallel, tolerance)...)
	if floor := baseline.Replay.AccessesPerSec * (1 - tolerance); current.Replay.AccessesPerSec < floor {
		problems = append(problems, fmt.Sprintf(
			"replay: %.0f accesses/sec is below the regression floor %.0f (baseline %.0f)",
			current.Replay.AccessesPerSec, floor, baseline.Replay.AccessesPerSec))
	}
	problems = append(problems, checkParallelAdvantage(current)...)
	problems = append(problems, checkInspectOverhead(current, baseline)...)
	return problems
}

// checkInspectOverhead enforces the inspect-on structural floor on the
// pairwise overhead ratio RunCoreBench measured (inspect and serial runs
// back to back within each pair, best ratio kept). Machine-relative and
// temporally adjacent, so it holds on noisy shared runners where comparing
// independently-timed rows cannot. The row's absolute throughput is NOT
// gated against the baseline: it is the serial row's throughput times
// this ratio, both of which are gated already, and the inspect row is
// measured last in the run — when a shared host has typically drifted
// furthest from the baseline's conditions — so an absolute floor on it
// would mostly gate that drift. A current run missing the ratio a
// baseline records still fails: a gate that silently skips rows is not a
// gate. Baselines from before the ratio existed are skipped.
func checkInspectOverhead(current, baseline *CoreBench) []string {
	if baseline.InspectOverheadRatio > 0 && current.InspectOverheadRatio <= 0 {
		return []string{"inspect: baseline records an overhead ratio but the current run measured none"}
	}
	if current.InspectOverheadRatio <= 0 {
		return nil
	}
	if current.InspectOverheadRatio < minInspectThroughput {
		return []string{fmt.Sprintf(
			"inspect: frame capture costs %.1f%% of paired serial throughput; floor is %.0f%%",
			100*(1-current.InspectOverheadRatio), 100*(1-minInspectThroughput))}
	}
	return nil
}

// compareRows gates one stepper's rows against its baseline rows by core
// count.
func compareRows(label string, current, baseline []ScalingResult, tolerance float64) []string {
	var problems []string
	base := make(map[int]ScalingResult, len(baseline))
	for _, r := range baseline {
		base[r.Cores] = r
	}
	seen := make(map[int]bool, len(current))
	for _, r := range current {
		seen[r.Cores] = true
		b, ok := base[r.Cores]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s cores=%d: no baseline row", label, r.Cores))
			continue
		}
		floor := b.CyclesPerSec * (1 - tolerance)
		if r.CyclesPerSec < floor {
			problems = append(problems, fmt.Sprintf(
				"%s cores=%d: %.0f cycles/sec is below the regression floor %.0f (baseline %.0f, tolerance %.0f%%)",
				label, r.Cores, r.CyclesPerSec, floor, b.CyclesPerSec, tolerance*100))
		}
	}
	for _, r := range baseline {
		if !seen[r.Cores] {
			problems = append(problems, fmt.Sprintf("%s cores=%d: baseline row not measured", label, r.Cores))
		}
	}
	return problems
}

// checkParallelAdvantage enforces the structural floor: at the largest core
// count measured by both steppers, the epoch-parallel stepper must beat the
// serial stepper by minParallelAdvantage. This is machine-relative (both
// numbers come from the same run on the same host), so it holds on noisy
// shared runners where absolute floors cannot.
func checkParallelAdvantage(cb *CoreBench) []string {
	serial := make(map[int]ScalingResult, len(cb.Stepper))
	for _, r := range cb.Stepper {
		serial[r.Cores] = r
	}
	best := -1
	for _, r := range cb.StepperParallel {
		if _, ok := serial[r.Cores]; ok && r.Cores > best {
			best = r.Cores
		}
	}
	if best < 2 {
		return nil
	}
	var par ScalingResult
	for _, r := range cb.StepperParallel {
		if r.Cores == best {
			par = r
		}
	}
	ser := serial[best]
	if ser.CyclesPerSec <= 0 {
		return nil
	}
	if ratio := par.CyclesPerSec / ser.CyclesPerSec; ratio < minParallelAdvantage {
		return []string{fmt.Sprintf(
			"parallel cores=%d: epoch stepper is only %.2fx the serial stepper (%.0f vs %.0f cycles/sec); structural floor is %.1fx",
			best, ratio, par.CyclesPerSec, ser.CyclesPerSec, minParallelAdvantage)}
	}
	return nil
}

// CoreBenchTable renders the snapshot: one row per stepper measurement,
// then the replay row and the paired inspect/serial ratio.
func CoreBenchTable(cb *CoreBench) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Core benchmark (best of %d)", cb.Reps),
		Headers: []string{"stepper", "cores", "accesses", "sim cycles", "wall s", "sim cycles/s"},
	}
	for _, rows := range [][]ScalingResult{cb.Stepper, cb.StepperParallel, cb.StepperInspect} {
		for _, r := range rows {
			stepper := "serial"
			if r.Parallel {
				stepper = fmt.Sprintf("epoch K=%d", r.EpochCycles)
			} else if r.InspectEvery > 0 {
				stepper = fmt.Sprintf("inspect K=%d", r.InspectEvery)
			}
			t.AddRow(stepper, fmt.Sprintf("%d", r.Cores), fmt.Sprintf("%d", r.Accesses),
				fmt.Sprintf("%d", r.SimCycles), fmt.Sprintf("%.3f", r.WallSeconds),
				fmt.Sprintf("%.0f", r.CyclesPerSec))
		}
	}
	t.AddRow("replay", "-", fmt.Sprintf("%d", cb.Replay.Accesses), "-",
		fmt.Sprintf("%.3f", cb.Replay.WallSeconds),
		fmt.Sprintf("%.0f acc/s", cb.Replay.AccessesPerSec))
	if cb.InspectOverheadRatio > 0 {
		t.AddRow("inspect/serial", "-", "-", "-", "-",
			fmt.Sprintf("%.2fx paired", cb.InspectOverheadRatio))
	}
	return t
}
