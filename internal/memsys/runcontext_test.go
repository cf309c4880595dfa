package memsys

import (
	"context"
	"errors"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:   DefaultTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func strideTrace(n int) memtrace.Trace {
	tr := make(memtrace.Trace, n)
	for i := range tr {
		tr[i] = memtrace.Access{Addr: uint64(i) * 32, Op: memtrace.Read}
	}
	return tr
}

// RunContext with an inert context must behave exactly like Run.
func TestRunContextMatchesRun(t *testing.T) {
	tr := strideTrace(10000)
	want := testSystem(t).Run(tr)

	sys := testSystem(t)
	got, err := sys.RunContext(context.Background(), tr, RunOptions{})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got != want {
		t.Fatalf("RunContext cycles = %d, Run cycles = %d", got, want)
	}
	if sys.Stats().MemAccesses != int64(len(tr)) {
		t.Fatalf("MemAccesses = %d, want %d", sys.Stats().MemAccesses, len(tr))
	}
}

// Cancellation must stop the run at the next checkpoint, not at the end.
func TestRunContextCancellation(t *testing.T) {
	tr := strideTrace(100000)
	sys := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())

	const every = 512
	var checkpoints int
	_, err := sys.RunContext(ctx, tr, RunOptions{
		CheckEvery: every,
		OnCheckpoint: func(done int64, _ Stats) {
			checkpoints++
			if done >= 4*every {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := sys.Stats().MemAccesses
	if done >= int64(len(tr)) {
		t.Fatal("cancellation did not stop the run")
	}
	// One checkpoint stride of slack: the cancel lands between polls.
	if done > 5*every {
		t.Fatalf("run continued %d accesses past cancellation (stride %d)", done, every)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoints fired")
	}
}

// Checkpoint snapshots must be detached copies: mutating the machine after
// a snapshot is taken must not change the snapshot. This is the guarantee
// metrics scraping mid-simulation rides on.
func TestCheckpointSnapshotsAreCopies(t *testing.T) {
	tr := strideTrace(8192)
	sys := testSystem(t)
	var snaps []Stats
	var dones []int64
	_, err := sys.RunContext(context.Background(), tr, RunOptions{
		CheckEvery: 1024,
		OnCheckpoint: func(done int64, st Stats) {
			snaps = append(snaps, st)
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("want multiple checkpoints, got %d", len(snaps))
	}
	for i, st := range snaps {
		if st.MemAccesses != dones[i] {
			t.Fatalf("checkpoint %d: snapshot has %d accesses, expected %d — snapshot aliased live state",
				i, st.MemAccesses, dones[i])
		}
	}
}

// System.Stats itself must return an independent copy.
func TestStatsSnapshotIndependent(t *testing.T) {
	sys := testSystem(t)
	sys.Run(strideTrace(100))
	snap := sys.Stats()
	before := snap.MemAccesses
	sys.Run(strideTrace(100))
	if snap.MemAccesses != before {
		t.Fatal("Stats snapshot changed after later accesses")
	}
	if sys.Stats().MemAccesses != 2*before {
		t.Fatalf("live stats = %d accesses, want %d", sys.Stats().MemAccesses, 2*before)
	}
}
