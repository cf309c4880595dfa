package inspect

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
	"colcache/internal/workloads/synth"
)

func testSystem(t *testing.T) (*memsys.System, memtrace.Trace) {
	t.Helper()
	sys, err := memsys.New(memsys.Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:   memsys.DefaultTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableL2(cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8}, 6, false); err != nil {
		t.Fatal(err)
	}
	sys.EnablePerTintStats()
	// The upper half of the streamed buffer is tinted: its tail is what the
	// final sweep leaves resident, so end-of-run frames still show the tint.
	if _, err := sys.MapRegion(memory.Region{Name: "hot", Base: 8 << 10, Size: 8 << 10}, replacement.Mask(0b0011)); err != nil {
		t.Fatal(err)
	}
	return sys, synth.Stream(0, 16<<10, 4, 2).Trace
}

// runFrames executes the trace with inspection at the given stride and
// returns the marshaled frame sequence.
func runFrames(t *testing.T, every int) [][]byte {
	t.Helper()
	sys, trace := testSystem(t)
	red := NewSystemReducer(sys)
	var frames [][]byte
	var f Frame
	_, err := sys.RunContext(context.Background(), trace, memsys.RunOptions{
		InspectEvery: int64(every),
		OnInspect: func(done int64, st memsys.Stats) {
			red.Reduce(&f, done, done == int64(len(trace)))
			b, err := json.Marshal(&f)
			if err != nil {
				t.Errorf("marshal: %v", err)
			}
			frames = append(frames, b)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestSystemReducerFrames(t *testing.T) {
	frames := runFrames(t, 1024)
	if len(frames) < 4 {
		t.Fatalf("got %d frames, want several", len(frames))
	}
	var first, last Frame
	if err := json.Unmarshal(frames[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(frames[len(frames)-1], &last); err != nil {
		t.Fatal(err)
	}
	if first.Seq != 0 || first.Done != 1024 {
		t.Fatalf("first frame seq=%d done=%d, want 0/1024", first.Seq, first.Done)
	}
	if !last.Final {
		t.Fatal("last frame not marked final")
	}
	if len(last.Caches) != 2 || last.Caches[0].Name != "l1" || last.Caches[1].Name != "l2" {
		t.Fatalf("cache frames = %+v, want [l1 l2]", last.Caches)
	}
	l1 := last.Caches[0]
	if l1.Sets != 16 || l1.Ways != 4 || len(l1.Occ) != 64 || len(l1.MSI) != 64 {
		t.Fatalf("l1 shape %dx%d occ=%d, want 16x4/64", l1.Sets, l1.Ways, len(l1.Occ))
	}
	// A streamed 16K buffer saturates a 2K L1: every line valid, and the
	// sweep's pages carry the "hot" tint (id 1 → tag 2) in the masked
	// columns plus the rest of the buffer under the default tint (tag 1).
	if l1.Valid != 64 {
		t.Fatalf("l1 valid = %d, want 64 (saturated)", l1.Valid)
	}
	sawHot := false
	for _, tag := range l1.Occ {
		if tag == 0 {
			t.Fatal("valid count says saturated but an occ cell is 0")
		}
		if tag == 2 {
			sawHot = true
		}
	}
	if !sawHot {
		t.Fatal("no line tagged with the hot tint")
	}
	if l1.Valid != l1.Shared+l1.Modified {
		t.Fatalf("valid %d != shared %d + modified %d", l1.Valid, l1.Shared, l1.Modified)
	}
	// Masks: default + hot, in id order.
	if len(last.Masks) != 2 || last.Masks[0].ID != 0 || last.Masks[1].ID != 1 ||
		last.Masks[1].Mask != 0b0011 || last.Masks[0].Kind != "tint" {
		t.Fatalf("masks = %+v", last.Masks)
	}
	// Per-tint deltas: summed across frames they must equal the totals.
	var accSum, missSum int64
	for _, raw := range frames {
		var fr Frame
		if err := json.Unmarshal(raw, &fr); err != nil {
			t.Fatal(err)
		}
		for _, d := range fr.TintMiss {
			accSum += d.Accesses
			missSum += d.Misses
		}
		if fr.Caches[0].Misses < fr.Caches[0].MissDelta {
			t.Fatalf("cumulative misses %d < delta %d", fr.Caches[0].Misses, fr.Caches[0].MissDelta)
		}
	}
	if accSum == 0 || missSum == 0 {
		t.Fatal("per-tint deltas never accumulated")
	}
	if missSum != last.Caches[0].Misses {
		t.Fatalf("tint miss deltas sum to %d, L1 total is %d", missSum, last.Caches[0].Misses)
	}
}

// The frame sequence must be a pure function of (config, trace, stride):
// two identical runs produce byte-identical JSON.
func TestSystemReducerDeterministic(t *testing.T) {
	a := runFrames(t, 512)
	b := runFrames(t, 512)
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// Steady-state capture must not allocate: reducers reuse their buffers and
// the frame reuses its slices.
func TestSystemReducerAllocFree(t *testing.T) {
	sys, trace := testSystem(t)
	sys.Run(trace)
	red := NewSystemReducer(sys)
	var f Frame
	red.Reduce(&f, 1, false) // warm-up sizes every buffer
	red.Reduce(&f, 2, false)
	allocs := testing.AllocsPerRun(100, func() {
		red.Reduce(&f, 3, false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reduce allocates %.1f objects/op, want 0", allocs)
	}
}

func testMachine(t *testing.T) *multicore.Machine {
	t.Helper()
	t0 := synth.Stream(0, 4<<10, 4, 2).Trace
	t1 := synth.Stream(0, 4<<10, 4, 2).Trace
	shifted := make(memtrace.Trace, len(t1))
	for i, a := range t1 {
		a.Addr |= 1 << 32
		shifted[i] = a
	}
	m, err := multicore.New(multicore.Config{
		Geometry:    memory.MustGeometry(32, 1024),
		L1:          cache.Config{LineBytes: 32, NumSets: 8, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 32, NumWays: 4},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 4,
		Traces:      []memtrace.Trace{t0, shifted},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineReducerFrames(t *testing.T) {
	m := testMachine(t)
	red := NewMachineReducer(m, WindowOwner(m.NumCores(), 32))
	var frames []Frame
	var f Frame
	m.SetInspector(512, func(done int64) {
		red.Reduce(&f, done, false)
		b, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		var cp Frame
		if err := json.Unmarshal(b, &cp); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, cp)
	})
	if err := m.RunContext(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want several", len(frames))
	}
	last := frames[len(frames)-1]
	if len(last.Caches) != 3 || last.Caches[0].Name != "core0" ||
		last.Caches[1].Name != "core1" || last.Caches[2].Name != "l2" {
		t.Fatalf("cache frames = %+v, want [core0 core1 l2]", last.Caches)
	}
	if len(last.Masks) != 2 || last.Masks[0].Kind != "core" || last.Masks[1].ID != 1 {
		t.Fatalf("masks = %+v", last.Masks)
	}
	// The shared L2 holds lines from both cores' disjoint windows: owner
	// tags 1 (core 0) and 2 (core 1) must both appear.
	var saw [3]bool
	for _, tag := range last.Caches[2].Occ {
		if int(tag) < len(saw) {
			saw[tag] = true
		}
	}
	if !saw[1] || !saw[2] {
		t.Fatalf("L2 occupancy missing a core's lines: tags1=%v tags2=%v", saw[1], saw[2])
	}
	// Per-core L2 deltas ride TintMiss; summed they match the core totals.
	var acc int64
	for _, fr := range frames {
		for _, d := range fr.TintMiss {
			acc += d.Accesses
		}
	}
	want := m.CoreStatsAt(0).L2Accesses + m.CoreStatsAt(1).L2Accesses
	if acc != want {
		t.Fatalf("TintMiss access deltas sum to %d, cores total %d", acc, want)
	}
	if last.Cycles <= 0 || last.Done <= 0 {
		t.Fatalf("last frame cycles=%d done=%d", last.Cycles, last.Done)
	}
}

func TestMachineReducerAllocFree(t *testing.T) {
	m := testMachine(t)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	red := NewMachineReducer(m, WindowOwner(m.NumCores(), 32))
	var f Frame
	red.Reduce(&f, 1, false)
	red.Reduce(&f, 2, false)
	allocs := testing.AllocsPerRun(100, func() {
		red.Reduce(&f, 3, false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reduce allocates %.1f objects/op, want 0", allocs)
	}
}
