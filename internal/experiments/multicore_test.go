package experiments

import (
	"strings"
	"testing"
)

// multicoreTestConfig is the default co-run: shortening it erases the
// re-touch passes that carry the interference signal, and the full run takes
// well under a second.
func multicoreTestConfig() MulticoreConfig {
	return DefaultMulticoreConfig
}

func TestRunMulticoreShapes(t *testing.T) {
	data, err := RunMulticore(multicoreTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if problems := data.Verify(); len(problems) != 0 {
		t.Fatalf("shape checks failed: %v", problems)
	}
	if len(data.Static) != data.Config.L2Ways-1 {
		t.Errorf("static sweep has %d points, want %d", len(data.Static), data.Config.L2Ways-1)
	}
	best := data.Static[data.BestStatic()]
	t.Logf("unpartitioned %.2f%%, best static %s %.2f%%, adaptive %.2f%% (remaps %d, %d epochs)",
		100*data.Unpartitioned.L2MissRate, best.Label, 100*best.L2MissRate,
		100*data.Adaptive.L2MissRate, data.Adaptive.Remaps, len(data.Decisions))
	// The disjoint co-run still drives real bus and L2 traffic.
	if data.Unpartitioned.Bus.Reads == 0 || data.Unpartitioned.L2Accesses == 0 {
		t.Error("degenerate run: no bus reads or L2 accesses")
	}
	// The static sweep's mpeg-side misses must respond to the split: giving
	// idct more columns cannot be worse than giving it one, measured at the
	// extremes of the sweep.
	if len(data.Static) >= 2 {
		first, last := data.Static[0], data.Static[len(data.Static)-1]
		if last.MPEGMisses > first.MPEGMisses {
			t.Errorf("mpeg misses grew with its columns: %d (1 col) -> %d (%d cols)",
				first.MPEGMisses, last.MPEGMisses, data.Config.L2Ways-1)
		}
	}
}

func TestMulticoreTables(t *testing.T) {
	data, err := RunMulticore(multicoreTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tables := data.Tables()
	if len(tables) != 3 {
		t.Fatalf("Tables() = %d tables, want 3", len(tables))
	}
	var b strings.Builder
	for _, tab := range tables {
		if err := tab.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	out := b.String()
	for _, want := range []string{"unpartitioned", "best static", "adaptive", "BusRd"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

func TestRunMulticoreRejectsBadConfig(t *testing.T) {
	cfg := multicoreTestConfig()
	cfg.L2Ways = 2
	if _, err := RunMulticore(cfg); err == nil {
		t.Error("L2Ways=2 accepted")
	}
}

// The corebench epoch rows give every core a disjoint address window, so no
// epoch conflicts and conflict backoff never throttles speculation there.
func TestScalingEpochRowsNeverBackOff(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		r, err := measureStepper(epochStepper, n, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if r.SerialWindows != 0 {
			t.Errorf("%d cores: %d serial backoff windows on disjoint traces", r.Cores, r.SerialWindows)
		}
	}
}
