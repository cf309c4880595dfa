package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, workload string, trace, mutate bool) (int, string, result) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--workdir", t.TempDir()}
	if trace {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, mutate)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code == 0 || mutate {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
		}
	}
	return code, stdout.String(), res
}

// A short run of every workload prints every end-to-end metric, and a
// traced run every per-layer metric, by name and with a unit, both in the
// human-readable lines and in the result object.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			code, out, res := runBench(t, w, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w, trace, code, res, out)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result object, want %d", w, trace, len(res.Metrics), len(want))
			}
			printed := append([]string{"failed_frac"}, want...)
			if !trace {
				printed = append(printed, "sim_maccess_per_s", "req_per_s", "req_p50_ms", "req_p99_ms")
				if strings.HasSuffix(w, "-zipf") {
					printed = append(printed, "cached_p50_ms", "uncached_p50_ms", "uncached_p90_ms")
				}
			}
			for _, name := range printed {
				if !strings.Contains(out, "  "+name+" ") {
					t.Errorf("%s trace=%v: %s not printed", w, trace, name)
				}
			}
			for _, name := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without a unit: %+v", w, trace, name, m)
				}
			}
			if !trace && (res.Metrics["req_p10_ms"].Value <= 0 || res.Metrics["peak_heap_mb"].Value <= 0) {
				t.Errorf("%s: end-to-end metrics not measured: %+v", w, res.Metrics)
			}
		}
	}
}

// A result corrupted before its check counts as failed and makes the run
// exit non-zero.
func TestCorruptedResultFails(t *testing.T) {
	for _, w := range workloadNames() {
		code, out, res := runBench(t, w, false, true)
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted result passed: exit %d, result %+v\n%s", w, code, res, out)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr, false); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 50); v != 500 {
		t.Errorf("p50 = %v, want 500", v)
	}
}

func TestCoveredNs(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	if got := coveredNs(parent, kids); got != 40 {
		t.Errorf("covered %d ns, want 40", got)
	}
}
