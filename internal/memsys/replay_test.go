package memsys

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

func replaySystem(t testing.TB) *System {
	t.Helper()
	s, err := New(Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:   DefaultTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replayTrace(n int) memtrace.Trace {
	tr := make(memtrace.Trace, n)
	for i := range tr {
		op := memtrace.Read
		if i%5 == 0 {
			op = memtrace.Write
		}
		tr[i] = memtrace.Access{Addr: uint64(i%300) * 32, Op: op, Think: uint32(i % 2)}
	}
	return tr
}

func encode(t testing.TB, tr memtrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Replay must be bit-identical to materializing the trace and calling Run:
// same cycles, same stats.
func TestReplayMatchesRun(t *testing.T) {
	tr := replayTrace(10000)
	data := encode(t, tr)

	ref := replaySystem(t)
	wantCycles := ref.Run(tr)
	want := ref.Stats()

	sys := replaySystem(t)
	done, cycles, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
		ReplayOptions{CheckEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	if done != int64(len(tr)) {
		t.Fatalf("replayed %d accesses, want %d", done, len(tr))
	}
	if cycles != wantCycles {
		t.Fatalf("replay cycles %d, run cycles %d", cycles, wantCycles)
	}
	if got := sys.Stats(); got != want {
		t.Fatalf("replay stats %+v\nrun stats    %+v", got, want)
	}
}

// A short final chunk (trace length not a multiple of the checkpoint
// stride) must not drop or duplicate records.
func TestReplayShortFinalChunk(t *testing.T) {
	tr := replayTrace(1000)
	sys := replaySystem(t)
	done, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(encode(t, tr))),
		ReplayOptions{CheckEvery: 333})
	if err != nil {
		t.Fatal(err)
	}
	if done != 1000 {
		t.Fatalf("replayed %d accesses, want 1000", done)
	}
}

func TestReplayMaxAccesses(t *testing.T) {
	tr := replayTrace(1000)
	data := encode(t, tr)

	// Exactly at the limit: fine.
	sys := replaySystem(t)
	if _, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
		ReplayOptions{MaxAccesses: 1000}); err != nil {
		t.Fatalf("limit == length: %v", err)
	}
	// One under: the stream must be rejected.
	sys = replaySystem(t)
	_, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
		ReplayOptions{MaxAccesses: 999, CheckEvery: 100})
	if !errors.Is(err, memtrace.ErrTraceTooLarge) {
		t.Fatalf("limit exceeded: got %v, want ErrTraceTooLarge", err)
	}
}

func TestReplayCancellation(t *testing.T) {
	tr := replayTrace(10000)
	ctx, cancel := context.WithCancel(context.Background())
	sys := replaySystem(t)
	var checkpoints int
	done, _, err := sys.Replay(ctx, memtrace.NewDecoder(bytes.NewReader(encode(t, tr))),
		ReplayOptions{CheckEvery: 100, OnCheckpoint: func(int64, Stats) {
			checkpoints++
			if checkpoints == 3 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if done != 300 {
		t.Fatalf("replayed %d accesses before cancel, want 300", done)
	}
}

// A decode error is returned after every good record before it has been
// replayed, whatever the chunk size: done and cycles are those of the
// 99-record prefix at every stride.
func TestReplayDecodeError(t *testing.T) {
	tr := replayTrace(100)
	data := encode(t, tr)
	data = data[:len(data)-5] // truncate the final record
	wantCycles := replaySystem(t).Run(tr[:99])
	for _, every := range []int{1, 32, 100, 4096} {
		t.Run(fmt.Sprintf("stride=%d", every), func(t *testing.T) {
			sys := replaySystem(t)
			done, cycles, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
				ReplayOptions{CheckEvery: every})
			if err == nil {
				t.Fatal("truncated stream replayed without error")
			}
			if done != 99 {
				t.Fatalf("replayed %d accesses before the error, want 99", done)
			}
			if cycles != wantCycles {
				t.Fatalf("cycles %d before the error, Run of the prefix gives %d", cycles, wantCycles)
			}
		})
	}
}

// BenchmarkReplay measures the streaming replay loop end to end; the
// allocs/op figure is the satellite target — the chunk buffer is allocated
// once per Replay call, never per access.
func BenchmarkReplay(b *testing.B) {
	data := encode(b, replayTrace(65536))
	sys := replaySystem(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
			ReplayOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
