package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow set-up (a page-cache miss, a noisy neighbour) does
// not move it.
const setupReps = 9

// measureSetup runs build setupReps times and reports the median duration
// as setup_s. Every build but the last is released through its returned
// teardown; the last build's value is returned for the run to use.
func measureSetup[T any](r *report, build func() (T, func(), error)) (T, func(), error) {
	var (
		val  T
		done func()
		durs []float64
	)
	for i := 0; i < setupReps; i++ {
		if done != nil {
			done()
		}
		// A collection left over from the previous set-up would otherwise
		// land inside this one's timing on some runs and not on others.
		runtime.GC()
		start := time.Now()
		v, d, err := build()
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			return val, nil, err
		}
		val, done = v, d
	}
	r.set("setup_s", median(durs), "s", fmt.Sprintf("median of %d set-ups", setupReps))
	return val, done, nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and how many samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// setLatency records name as the p-th percentile of lat (milliseconds)
// with its sample count and the number of samples beyond it.
func setLatency(r *report, name string, lat []float64, p float64) {
	v, beyond := percentile(lat, p)
	r.set(name, v, "ms", fmt.Sprintf("n=%d, %d beyond", len(lat), beyond))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// heapSampler tracks the peak Go heap in use while it runs: the largest
// live heap (what the last GC found reachable) seen at any sample. The
// live heap is read without stopping the world, and unlike the heap's
// total size it does not depend on when a sample falls between two
// collections.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// window wraps the timed part of a run: a GC first so set-up garbage is
// not collected inside it, and the heap sampler around it.
type window struct {
	heap  *heapSampler
	start time.Time
}

func openWindow() *window {
	runtime.GC()
	return &window{heap: startHeapSampler(), start: time.Now()}
}

// close ends the window and returns its wall time in seconds and the peak
// heap in MiB.
func (w *window) close() (wall, peakMiB float64) {
	wall = time.Since(w.start).Seconds()
	return wall, w.heap.finish()
}

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent names the span that caused this one (0: none).
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped instead of growing memory without limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory during a traced run and writes them out at
// the end. A nil *tracer records nothing, which is how the end-to-end runs
// keep tracing off. Safe for concurrent use.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	nextID  uint32
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID, which children pass as parent.
func (t *tracer) add(req uint64, parent uint32, name string, start, end time.Time) uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.nextID
	}
	t.spans = append(t.spans, span{Req: req, ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return t.nextID
}

// selfTimes returns, per span name, the number of spans, their total time
// and their self time (duration minus the part covered by child spans), in
// milliseconds.
func (t *tracer) selfTimes() map[string][3]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][3]float64)
	for _, s := range t.spans {
		dur := s.End - s.Start
		covered := coveredNs(s, children[s.ID])
		v := out[s.Name]
		v[0]++
		v[1] += float64(dur) / 1e6
		v[2] += float64(dur-covered) / 1e6
		out[s.Name] = v
	}
	return out
}

// coveredNs is the length of the part of parent's interval covered by the
// union of the children's intervals.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the span file and prints the per-span-name self-time
// table, which shows where a request's time went.
func finishTrace(o options, r *report, t *tracer) error {
	path, err := t.write(o.workdir, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := st[n]
		r.set("span."+n+".self_ms", v[2]/v[0], "ms", fmt.Sprintf("mean of %.0f spans, total %.1f ms", v[0], v[1]))
	}
	r.set("trace.spans", float64(len(t.spans)), "count", fmt.Sprintf("%d dropped, written to %s", t.dropped, path))
	return nil
}

// setOverhead records trace.overhead_frac from the traced and untraced
// latencies of one interleaved window.
func setOverhead(r *report, traced, untraced []float64) {
	r.set("trace.overhead_frac", median(traced)/median(untraced)-1, "ratio",
		fmt.Sprintf("median of %d traced vs %d untraced interleaved operations", len(traced), len(untraced)))
}

// job is one timed simulation job: its host time and, when its result
// failed the check, why.
type job struct {
	ns      float64
	problem string
}

// timedJobs runs run back to back for the length of the window. In a
// traced run every other job is traced, so the tracing overhead compares
// interleaved jobs and host drift during the window cancels out. It
// returns the untraced and traced jobs, the window's wall time in seconds
// and the peak heap in MiB.
func timedJobs(o options, tr *tracer, run func(tr *tracer, req uint64) job) (untraced, traced []job, wall, peak float64) {
	w := openWindow()
	for req := uint64(1); time.Since(w.start).Seconds() < o.seconds; req++ {
		if tr != nil && req%2 == 0 {
			traced = append(traced, run(tr, req))
		} else {
			untraced = append(untraced, run(nil, req))
		}
	}
	wall, peak = w.close()
	return untraced, traced, wall, peak
}

// setJobMetrics records the end-to-end metrics of a simulation workload
// from its untraced jobs of accesses simulated accesses each, and counts
// every job's check.
func setJobMetrics(r *report, jobs, traced []job, accesses int, what string, wall, peak float64) []float64 {
	lat := jobMillis(jobs)
	// The throughput is taken at the fast decile, the 10th-percentile job
	// time: it tracks what the code costs, while req_per_s (from the mean)
	// also carries what the host's other tenants cost (see endToEnd).
	p10, _ := percentile(lat, 10)
	r.set("sim_maccess_per_s", float64(accesses)/p10/1e3, "M/s",
		fmt.Sprintf("%s, %d accesses per job at the 10th-percentile job time of %d", what, accesses, len(jobs)))
	r.set("req_per_s", float64(len(jobs))/(sum(lat)/1e3), "1/s", "jobs per second of job time")
	setLatency(r, "req_p10_ms", lat, 10)
	setLatency(r, "req_p50_ms", lat, 50)
	setLatency(r, "req_p99_ms", lat, 99)
	r.set("peak_heap_mb", peak, "MiB", fmt.Sprintf("window %.2f s", wall))
	for i, j := range append(append([]job(nil), jobs...), traced...) {
		r.attempted++
		if j.problem != "" {
			r.fail("job %d: %s", i, j.problem)
		}
	}
	return lat
}

func jobMillis(jobs []job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.ns / 1e6
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// warmup is the length of the discarded warm-up pass.
func warmup(o options) time.Duration {
	d := time.Duration(o.seconds * 0.05 * float64(time.Second))
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}
