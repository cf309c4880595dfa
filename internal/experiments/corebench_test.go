package experiments

import (
	"strings"
	"testing"
)

// coreBenchBaseline is a small hand-made snapshot: serial rows at 1/2/8
// cores, epoch rows at 2/8 cores (2x serial), and a recorded inspect ratio.
func coreBenchBaseline() *CoreBench {
	return &CoreBench{
		Stepper: []ScalingResult{
			{Cores: 1, CyclesPerSec: 100},
			{Cores: 2, CyclesPerSec: 100},
			{Cores: 8, CyclesPerSec: 100},
		},
		StepperParallel: []ScalingResult{
			{Cores: 2, Parallel: true, CyclesPerSec: 200},
			{Cores: 8, Parallel: true, CyclesPerSec: 200},
		},
		InspectOverheadRatio: 0.98,
		Replay:               ReplayBench{AccessesPerSec: 1000},
	}
}

// TestCompareCoreBench pins the regression gate's verdicts: each case
// perturbs one field of a clean run and names the problems it must raise,
// by prefix and in report order.
func TestCompareCoreBench(t *testing.T) {
	cases := []struct {
		name     string
		current  func(cb *CoreBench)
		baseline func(cb *CoreBench)
		want     []string
	}{
		{name: "clean run passes"},
		{
			name:    "serial row below floor",
			current: func(cb *CoreBench) { cb.Stepper[0].CyclesPerSec = 70 },
			want:    []string{"serial cores=1: 70 cycles/sec is below the regression floor 75"},
		},
		{
			name:    "epoch row below floor",
			current: func(cb *CoreBench) { cb.StepperParallel[1].CyclesPerSec = 140 },
			want:    []string{"parallel cores=8: 140 cycles/sec is below the regression floor 150"},
		},
		{
			name:    "baseline row not measured",
			current: func(cb *CoreBench) { cb.Stepper = cb.Stepper[1:] },
			want:    []string{"serial cores=1: baseline row not measured"},
		},
		{
			name: "measured row without baseline",
			current: func(cb *CoreBench) {
				cb.StepperParallel = append(cb.StepperParallel, ScalingResult{Cores: 4, Parallel: true, CyclesPerSec: 200})
			},
			want: []string{"parallel cores=4: no baseline row"},
		},
		{
			name:    "replay below floor",
			current: func(cb *CoreBench) { cb.Replay.AccessesPerSec = 700 },
			want:    []string{"replay: 700 accesses/sec is below the regression floor 750"},
		},
		{
			// Both rows are within tolerance of their baselines, but at the
			// largest shared core count the epoch stepper barely beats the
			// serial one; the 2-core pair still has its 2x advantage.
			name: "parallel advantage below floor at largest shared count",
			current: func(cb *CoreBench) {
				cb.Stepper[2].CyclesPerSec = 190
				cb.StepperParallel[1].CyclesPerSec = 195
			},
			want: []string{"parallel cores=8: epoch stepper is only 1.03x the serial stepper"},
		},
		{
			name:    "inspect ratio below floor",
			current: func(cb *CoreBench) { cb.InspectOverheadRatio = 0.9 },
			want:    []string{"inspect: frame capture costs 10.0% of paired serial throughput"},
		},
		{
			name:    "baseline ratio missing from current run",
			current: func(cb *CoreBench) { cb.InspectOverheadRatio = 0 },
			want:    []string{"inspect: baseline records an overhead ratio but the current run measured none"},
		},
		{
			name:     "old baseline without ratio is skipped",
			current:  func(cb *CoreBench) { cb.InspectOverheadRatio = 0 },
			baseline: func(cb *CoreBench) { cb.InspectOverheadRatio = 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			current, baseline := coreBenchBaseline(), coreBenchBaseline()
			if tc.current != nil {
				tc.current(current)
			}
			if tc.baseline != nil {
				tc.baseline(baseline)
			}
			got := CompareCoreBench(current, baseline, 0.25)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d problems %q, want %d %q", len(got), got, len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.HasPrefix(got[i], want) {
					t.Errorf("problem %d = %q, want prefix %q", i, got[i], want)
				}
			}
		})
	}
}
