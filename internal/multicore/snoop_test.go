package multicore

import (
	"strings"
	"testing"

	"colcache/internal/memtrace"
)

// The snoop mirror is state derived from the L1 tags, and the bus trusts it
// instead of probing the remote L1s. The invariant walk must therefore catch
// it drifting from the tags in either direction a missed update would leave
// it: a stale word (an invalidation that forgot to clear it) and a dropped
// word (a fill, in the lookahead or the serial path, that forgot to store
// it).
func TestSnoopMirrorDriftCaught(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Machine, set, way int)
	}{
		{"stale entry", func(m *Machine, set, way int) { m.L1(1).InvalidateWay(set, way) }},
		{"dropped entry", func(m *Machine, set, way int) { m.snoop[m.snoopSlot(set, 1, way)] = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Core 1 reads line 0x100 (L1 set 0) first; after that neither
			// core touches set 0 again, so no later fill repairs the word.
			m := MustNew(testConfig(
				memtrace.Trace{read(0x120), read(0x140), read(0x160)},
				memtrace.Trace{read(0x100), read(0x120), read(0x140), read(0x160)},
			))
			for m.cores[1].pos == 0 {
				if _, err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			set, _ := m.L1(1).SetTagOf(0x100)
			way := m.L1(1).WayOf(0x100)
			if way < 0 {
				t.Fatal("core 1 does not hold line 0x100")
			}
			tc.corrupt(m, set, way)
			if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "snoop mirror") {
				t.Fatalf("CheckInvariants: %v, want a snoop mirror error", err)
			}
			if _, err := m.Step(); err == nil || !strings.Contains(err.Error(), "snoop mirror") {
				t.Fatalf("Checks-mode Step: %v, want a snoop mirror error", err)
			}
		})
	}
}
