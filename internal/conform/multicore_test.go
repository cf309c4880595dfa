package conform

import (
	"testing"

	"colcache/internal/multicore"
)

// The serial-equivalence acceptance sweep: hundreds of seeded machines —
// geometries, core counts, epoch lengths, replacement policies, L2
// partitions, mid-run remap schedules and the Checks mode all drawn from
// the seed — run through the serial and epoch-parallel steppers and
// compared on every counter, the full cache contents and the final column
// masks. Checks-on cases verify coherence invariants live at every barrier;
// checks-off cases exercise the production merge path (local-hit tails,
// direct-execution tail-window conflicts) and still end with the full
// structural invariant walk. Run under -race by `make conformance`, this is
// also the epoch stepper's data-race stress.
func TestMulticoreSerialEquivalenceSweep(t *testing.T) {
	cases := 500
	if testing.Short() {
		cases = 60
	}
	var total multicore.EpochStats
	for seed := int64(1); seed <= int64(cases); seed++ {
		c := NewMCCase(seed)
		es, d := RunMCCase(c)
		if d != nil {
			t.Fatalf("seed %d (cores=%d epoch=%d partition=%v remap=%d events): %v",
				seed, len(c.Cfg.Traces), c.Epoch, c.Partition, len(c.Remap), d)
		}
		total.Epochs += es.Epochs
		total.ConflictEpochs += es.ConflictEpochs
		total.RecordsMerged += es.RecordsMerged
		total.DirectAccesses += es.DirectAccesses
		total.SerialWindows += es.SerialWindows
		total.PredictedConflicts += es.PredictedConflicts
	}
	t.Logf("%d cases: epochs=%d conflict_epochs=%d records_merged=%d direct_accesses=%d serial_windows=%d predicted_conflicts=%d",
		cases, total.Epochs, total.ConflictEpochs, total.RecordsMerged, total.DirectAccesses, total.SerialWindows, total.PredictedConflicts)
}

// The sweep's case generator must actually produce the variety it claims:
// across the first 100 seeds every epoch length in the axis, partitioned and
// unpartitioned machines, and at least one remap schedule have to appear —
// and the epoch stepper's three paths (a clean merge, a rollback, and a
// serial window of conflict backoff) must each run in a quarter of the
// cases, so backoff cannot quietly shrink what the sweep proves.
func TestMCCaseGeneratorCoverage(t *testing.T) {
	epochs := map[int64]bool{}
	partitioned, unpartitioned, remapped, checksOn, checksOff := 0, 0, 0, 0, 0
	merged, rolledBack, backedOff := 0, 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		c := NewMCCase(seed)
		epochs[c.Epoch] = true
		es, d := RunMCCase(c)
		if d != nil {
			t.Fatalf("seed %d: %v", seed, d)
		}
		if es.RecordsMerged > 0 {
			merged++
		}
		if es.ConflictEpochs > 0 {
			rolledBack++
		}
		if es.SerialWindows > 0 {
			backedOff++
		}
		if c.Partition != nil {
			partitioned++
		} else {
			unpartitioned++
		}
		if len(c.Remap) > 0 {
			remapped++
		}
		if c.Cfg.Checks {
			checksOn++
		} else {
			checksOff++
		}
	}
	for _, k := range mcEpochs {
		if !epochs[k] {
			t.Errorf("epoch length %d never drawn", k)
		}
	}
	if partitioned == 0 || unpartitioned == 0 || remapped == 0 {
		t.Errorf("axis collapsed: partitioned=%d unpartitioned=%d remapped=%d",
			partitioned, unpartitioned, remapped)
	}
	// Checks gates two structurally different merge paths (per-hit note
	// records vs folded local-hit tails); the sweep must run both, and
	// neither may dwindle to a token share.
	if checksOn < 25 || checksOff < 25 {
		t.Errorf("checks axis collapsed: on=%d off=%d", checksOn, checksOff)
	}
	if merged < 25 || rolledBack < 25 || backedOff < 25 {
		t.Errorf("stepper paths collapsed: merged=%d rolled back=%d backed off=%d",
			merged, rolledBack, backedOff)
	}
}
