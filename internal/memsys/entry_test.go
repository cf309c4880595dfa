package memsys

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"colcache/internal/memtrace"
)

// event is one callback the trace loop fired: a checkpoint or an
// inspection, at a trace position, with the snapshot it carried.
type event struct {
	inspect bool
	done    int64
	st      Stats
}

// recordingOptions returns options at the given checkpoint stride, with
// inspection every 500 accesses, that append every callback to *log.
func recordingOptions(every int, log *[]event) RunOptions {
	return RunOptions{
		CheckEvery:   every,
		OnCheckpoint: func(done int64, st Stats) { *log = append(*log, event{false, done, st}) },
		InspectEvery: 500,
		OnInspect:    func(done int64, st Stats) { *log = append(*log, event{true, done, st}) },
	}
}

// Run, RunContext, Replay and a RunContext resumed from any of its own
// checkpoints are one loop behind four entry points: at every stride they
// must agree on cycles and Stats, and the callback-driven ones on every
// checkpoint and inspection position and snapshot.
func TestEntryPointsAgree(t *testing.T) {
	tr := mixedTrace(1200) // a multiple of neither stride nor of 500
	ref := replaySystem(t)
	wantCycles := ref.Run(tr)
	wantStats := ref.Stats()
	data := encode(t, tr)

	for _, every := range []int{1, 333, 4096} {
		t.Run(fmt.Sprintf("stride=%d", every), func(t *testing.T) {
			var want []event
			sys := replaySystem(t)
			cycles, err := sys.RunContext(context.Background(), tr, recordingOptions(every, &want))
			if err != nil {
				t.Fatal(err)
			}
			if cycles != wantCycles || sys.Stats() != wantStats {
				t.Fatalf("RunContext: cycles %d stats %+v, Run: cycles %d stats %+v", cycles, sys.Stats(), wantCycles, wantStats)
			}
			if last := want[len(want)-1]; last.inspect || last.done != int64(len(tr)) {
				t.Fatalf("RunContext's last callback %+v is not the final checkpoint", last)
			}

			var got []event
			sys = replaySystem(t)
			done, cycles, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
				recordingOptions(every, &got))
			if err != nil {
				t.Fatal(err)
			}
			if done != int64(len(tr)) || cycles != wantCycles || sys.Stats() != wantStats {
				t.Fatalf("Replay: done %d cycles %d, want %d and %d", done, cycles, len(tr), wantCycles)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Replay callbacks differ from RunContext's:\n got %v\nwant %v", positions(got), positions(want))
			}

			for _, cp := range want {
				if cp.inspect || cp.done == int64(len(tr)) {
					continue
				}
				var suffix []event
				for _, e := range want {
					if e.done > cp.done {
						suffix = append(suffix, e)
					}
				}
				got = nil
				opts := recordingOptions(every, &got)
				opts.Resume = Checkpoint{Done: cp.done, Cycles: cp.st.Cycles}
				sys := replaySystem(t)
				cycles, err := sys.RunContext(context.Background(), tr, opts)
				if err != nil {
					t.Fatalf("resume at %d: %v", cp.done, err)
				}
				if cycles != wantCycles || sys.Stats() != wantStats {
					t.Fatalf("resume at %d: cycles %d, want %d", cp.done, cycles, wantCycles)
				}
				if !reflect.DeepEqual(got, suffix) {
					t.Fatalf("resume at %d: callbacks\n got %v\nwant %v", cp.done, positions(got), positions(suffix))
				}
			}
		})
	}
}

func positions(log []event) []string {
	out := make([]string, len(log))
	for i, e := range log {
		kind := "cp"
		if e.inspect {
			kind = "insp"
		}
		out[i] = fmt.Sprintf("%s@%d", kind, e.done)
	}
	return out
}
