package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	colcache "colcache"
)

// TestSweepPointsMatchSimulate checks that a sweep point's result is the
// result /v1/simulate returns for that point's spec, label aside — the
// adaptive controller's block included.
func TestSweepPointsMatchSimulate(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	adaptive := colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 32, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "random", N: 2000, Seed: 3},
		Adaptive: &colcache.AdaptiveSpec{EpochAccesses: 256},
	}
	for _, base := range []colcache.SimSpec{tinySpec(""), adaptive} {
		sweep := colcache.SweepSpec{Label: "sw", Base: base, Ways: []int{2, 4}, Workers: 2}
		resp, body := postJSON(t, ts, "/v1/sweep", sweep)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep submit: HTTP %d: %s", resp.StatusCode, body)
		}
		var info colcache.JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, ts, info.ID)
		if done.State != colcache.StateDone || done.Sweep == nil {
			t.Fatalf("sweep job: %s: %s", done.State, done.Error)
		}
		points, err := expandSweep(sweep, srv.cfg.MaxSweepPoints)
		if err != nil {
			t.Fatal(err)
		}
		if len(done.Sweep.Points) != len(points) {
			t.Fatalf("sweep returned %d points, want %d", len(done.Sweep.Points), len(points))
		}
		for i, spec := range points {
			got := done.Sweep.Points[i].Result
			if spec.Adaptive != nil && got.Adaptive == nil {
				t.Errorf("point %q: adaptive spec but no adaptive block", spec.Label)
			}
			resp, body := postJSON(t, ts, "/v1/simulate", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("simulate submit: HTTP %d: %s", resp.StatusCode, body)
			}
			var sim colcache.JobInfo
			if err := json.Unmarshal(body, &sim); err != nil {
				t.Fatal(err)
			}
			sim = waitTerminal(t, ts, sim.ID)
			if sim.State != colcache.StateDone || sim.Result == nil {
				t.Fatalf("simulate %q: %s: %s", spec.Label, sim.State, sim.Error)
			}
			want := *sim.Result
			got.Label, want.Label = "", ""
			if !reflect.DeepEqual(got, want) {
				t.Errorf("point %q differs from /v1/simulate:\nsweep    %+v\nsimulate %+v", spec.Label, got, want)
			}
		}
	}
}

// TestSweepCanceledMidRun cancels a serial sweep once its first point has
// finished; the error must keep context.Canceled's identity so the job is
// classified as canceled, not failed.
func TestSweepCanceledMidRun(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, CheckEvery: 256})
	defer srv.Drain(context.Background())
	j := &Job{ID: "cancel", Kind: "sweep", SweepSpec: &colcache.SweepSpec{
		Base: colcache.SimSpec{
			Machine:  colcache.MachineSpec{Sets: 32, Ways: 4},
			Workload: &colcache.WorkloadSpec{Name: "random", N: 50000, Seed: 1},
		},
		Sets:    []int{16, 32, 64, 128},
		Ways:    []int{1, 2, 4, 8},
		Workers: 1,
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.runSweep(ctx, j) }()
	for p := j.Info().Progress; p == nil || p.PointsDone < 1; p = j.Info().Progress {
		select {
		case err := <-errc:
			t.Fatalf("sweep finished before it could be canceled: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p := j.Info().Progress; p == nil || p.PointsDone < 1 || p.PointsDone >= p.PointsTotal {
		t.Fatalf("not canceled mid-run: progress %+v", p)
	}
}
