package multicore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// inspected builds a machine from cfg whose inspector, every `every`
// accesses, appends the global position to *frames.
func inspected(t *testing.T, cfg Config, every int64, frames *[]int64) *Machine {
	t.Helper()
	m := MustNew(cfg)
	m.SetInspector(every, func(done int64) { *frames = append(*frames, done) })
	return m
}

// grid returns the multiples of every up to total: the positions a
// stride-`every` callback fires at over a run of total steps.
func grid(every, total int64) []int64 {
	var out []int64
	for p := every; p <= total; p += every {
		out = append(out, p)
	}
	return out
}

// Run, RunContext at any stride, repeated Step and a canceled-then-resumed
// RunContext all step through runBatch. With checks on or off, on 1, 2 and
// 4 cores, they must leave bit-identical machines, fire the inspector at
// the same exact global positions, and report checkpoints on the stride
// grid.
func TestEntryPointsAgree(t *testing.T) {
	const inspectEvery = 50
	for _, cores := range []int{1, 2, 4} {
		for _, checks := range []bool{false, true} {
			cfg := sharedConfig(int64(cores), cores, checks)
			t.Run(fmt.Sprintf("cores=%d/checks=%v", cores, checks), func(t *testing.T) {
				var total int64
				for _, tr := range cfg.Traces {
					total += int64(len(tr))
				}
				wantFrames := grid(inspectEvery, total)
				if total%inspectEvery != 0 {
					wantFrames = append(wantFrames, total)
				}

				var frames []int64
				ref := inspected(t, cfg, inspectEvery, &frames)
				if err := ref.Run(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(frames, wantFrames) {
					t.Fatalf("Run: inspector at %v, want %v", frames, wantFrames)
				}

				for _, every := range []int{1, 7, 4096} {
					label := fmt.Sprintf("RunContext stride %d", every)
					frames = nil
					var cps []int64
					m := inspected(t, cfg, inspectEvery, &frames)
					if err := m.RunContext(context.Background(), every, func(done int64) { cps = append(cps, done) }); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireMachinesEqual(t, label, ref, m)
					if !reflect.DeepEqual(frames, wantFrames) {
						t.Fatalf("%s: inspector at %v, want %v", label, frames, wantFrames)
					}
					// The closing report lands at total even when the grid
					// already did.
					wantCps := append(grid(int64(every), total), total)
					if !reflect.DeepEqual(cps, wantCps) {
						t.Fatalf("%s: checkpoints at %v, want %v", label, cps, wantCps)
					}
				}

				m := MustNew(cfg)
				var steps int64
				for {
					more, err := m.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !more {
						break
					}
					steps++
				}
				if steps != total {
					t.Fatalf("Step ran %d accesses, want %d", steps, total)
				}
				requireMachinesEqual(t, "Step", ref, m)

				// Cancellation lands on the stride-7 checkpoint at or after
				// the cut, so the last cut leaves the run unfinished.
				for _, cut := range []int64{1, total / 3, total - 7} {
					label := fmt.Sprintf("cancel at %d", cut)
					frames = nil
					m := inspected(t, cfg, inspectEvery, &frames)
					ctx, cancel := context.WithCancel(context.Background())
					err := m.RunContext(ctx, 7, func(done int64) {
						if done >= cut {
							cancel()
						}
					})
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: got %v, want context.Canceled", label, err)
					}
					if m.Done() {
						t.Fatalf("%s: run finished before the cancel", label)
					}
					if err := m.RunContext(context.Background(), 7, nil); err != nil {
						t.Fatalf("%s: resume: %v", label, err)
					}
					requireMachinesEqual(t, label, ref, m)
					if !reflect.DeepEqual(frames, wantFrames) {
						t.Fatalf("%s: inspector at %v, want %v", label, frames, wantFrames)
					}
				}
			})
		}
	}
}
