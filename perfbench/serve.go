package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	colcache "colcache"
	"colcache/internal/cache"
	"colcache/internal/fabric"
	"colcache/internal/memtrace"
	"colcache/internal/resultcache"
	"colcache/internal/service"
	"colcache/internal/vm"
	"colcache/internal/wal"
)

// serve-zipf and fabric-zipf: two closed-loop clients in this process call
// an in-process colserved with durability on (write-ahead log and result
// cache in a fresh directory under the work directory). A fixed share of
// requests are fresh specs, which the server simulates, commits to the
// log and puts into the result cache; the rest are drawn zipfian from a
// popular set that a warm-up pass has already cached. fabric-zipf sends
// the same stream to a fabric coordinator with two workers on its ring.

const (
	servePopular = 128 // distinct popular specs
	// The popular set is drawn zipfian with P(rank k) ∝ (serveZipfV+k)^-serveZipfS:
	// a skewed distribution whose head is flat enough that no single spec
	// (and so no single seed's choice of it) dominates a run.
	serveZipfS    = 1.2
	serveZipfV    = 8
	serveFreshPct = 10   // share of requests that are fresh specs
	serveFreshGen = 2048 // fresh specs generated per client at set-up; more are generated on demand
	serveClients  = 2    // closed-loop clients, sharing 2 connections
	// servePoll is the clients' Client.PollInterval. At the 5 ms default an
	// uncached answer's latency moves in 5 ms steps, which would hide a
	// faster simulate path.
	servePoll       = time.Millisecond
	serveCacheBytes = 64 << 20
	fabricWorkers   = 2
)

// genSpec returns the spec with the given unique number. Every spec is a
// distinct content address because its workload seed is uniq. The specs
// span all four replacement policies, four single-core workloads and small
// multicore co-runs; sizes are chosen so every trace has 2–8 Ki accesses,
// which keeps one seed's mix from costing much more than another's.
func genSpec(seed, uniq int64) colcache.SimSpec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + uniq))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	spec := colcache.SimSpec{Machine: colcache.MachineSpec{
		Sets:        pick(16, 32, 64),
		Ways:        pick(2, 4, 8),
		Policy:      string(policies[rng.Intn(len(policies))]),
		MissPenalty: pick(20, 40),
	}}
	single := func(scale int) colcache.WorkloadSpec {
		switch rng.Intn(4) {
		case 0:
			return colcache.WorkloadSpec{Name: "mpeg-idct", N: pick(2, 3) * scale / 2, Seed: uniq}
		case 1:
			return colcache.WorkloadSpec{Name: "gzip", SizeBytes: uint64(pick(256, 512) * scale / 2), Seed: uniq}
		case 2:
			return colcache.WorkloadSpec{Name: "random", N: (3000 + rng.Intn(3000)) * scale / 2, SizeBytes: uint64(pick(8, 16, 64)) << 10, Seed: uniq}
		default:
			return colcache.WorkloadSpec{Name: "chase", N: (3000 + rng.Intn(3000)) * scale / 2, Seed: uniq}
		}
	}
	if rng.Intn(5) > 0 {
		w := single(2)
		spec.Workload = &w
		return spec
	}
	mc := &colcache.MulticoreSpec{SharedAddresses: rng.Intn(2) == 0}
	for i := 0; i < 2; i++ {
		mc.Cores = append(mc.Cores, colcache.CoreSpec{Workload: single(1), Columns: []int{2 * i, 2*i + 1}})
	}
	spec.Multicore = mc
	return spec
}

// reference is a spec's result computed in-process through the service's
// own build functions, outside the timed window.
type reference struct {
	res    colcache.SimResult // after a JSON round trip, as a client sees it
	counts simCounts
	probes []probeStream
}

// simCounts are the exact counters a simulation produced.
type simCounts struct {
	accesses, cycles int64
	tlb              vm.TLBStats
	l1, l2           cache.Stats
}

func (c *simCounts) add(o simCounts) {
	c.accesses += o.accesses
	c.cycles += o.cycles
	c.tlb.Accesses += o.tlb.Accesses
	c.tlb.Hits += o.tlb.Hits
	c.tlb.Misses += o.tlb.Misses
	addCache(&c.l1, o.l1)
	addCache(&c.l2, o.l2)
}

// computeReference runs spec in-process; withProbes also keeps its access
// streams for the layer probes.
func computeReference(spec colcache.SimSpec, withProbes bool) (*reference, error) {
	if err := service.ValidateSim(spec, false, service.Limits{}); err != nil {
		return nil, fmt.Errorf("generated spec is invalid: %w", err)
	}
	ref := &reference{}
	var res colcache.SimResult
	if spec.Multicore != nil {
		b, err := service.BuildMulticore(spec, service.Limits{})
		if err != nil {
			return nil, err
		}
		if err := b.M.Run(); err != nil {
			return nil, err
		}
		res = service.MulticoreResult(spec.Label, b)
		st := b.M.Stats()
		ref.counts.cycles = st.Cycles
		ref.counts.l2 = st.L2
		for _, c := range st.Cores {
			ref.counts.add(simCounts{accesses: c.MemAccesses, tlb: c.TLB, l1: c.L1})
		}
		if withProbes {
			traces, err := mcCoreTraces(spec)
			if err != nil {
				return nil, err
			}
			for i, t := range traces {
				ref.probes = append(ref.probes, probeStream{trace: t, l1: b.M.L1(i).Config(), pageBytes: b.M.PageTable(i).Geometry().PageBytes})
			}
		}
	} else {
		b, err := service.BuildSim(spec, nil, service.Limits{})
		if err != nil {
			return nil, err
		}
		cycles := b.Sys.Run(b.Trace)
		res = service.Result(spec.Label, b, cycles, spec.Machine)
		st := b.Sys.Stats()
		ref.counts = simCounts{accesses: st.MemAccesses, cycles: st.Cycles, tlb: st.TLB, l1: st.Cache, l2: st.L2}
		if withProbes {
			ref.probes = append(ref.probes, probeStream{trace: b.Trace, l1: b.Sys.Cache().Config(), pageBytes: b.Sys.Geometry().PageBytes})
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(blob, &ref.res); err != nil {
		return nil, err
	}
	return ref, nil
}

// mcCoreTraces regenerates a multicore spec's per-core traces for the
// layer probes, with the per-core address windows BuildMulticore applies
// unless the spec shares addresses.
func mcCoreTraces(spec colcache.SimSpec) ([]memtrace.Trace, error) {
	line := spec.Machine.LineBytes
	if line == 0 {
		line = 32 // the service's default line size
	}
	var traces []memtrace.Trace
	for i, cs := range spec.Multicore.Cores {
		prog, err := service.BuildWorkload(cs.Workload, line)
		if err != nil {
			return nil, err
		}
		t := prog.Trace
		if !spec.Multicore.SharedAddresses {
			t = append(memtrace.Trace(nil), t...)
			for k := range t {
				t[k].Addr += uint64(i) << 32
			}
		}
		traces = append(traces, t)
	}
	return traces, nil
}

// serveNode is one colserved instance behind a local listener.
type serveNode struct {
	name  string
	dur   *service.Durability
	srv   *service.Server
	hs    *httptest.Server
	agent *fabric.Agent
}

// serveEnv is one set-up of the serving stack.
type serveEnv struct {
	dir     string
	url     string // where the clients send requests
	nodes   []*serveNode
	coord   *fabric.Coordinator
	coordHS *httptest.Server
}

func startServe(o options, fab bool) (*serveEnv, error) {
	dir, err := os.MkdirTemp(o.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	workers := runtime.NumCPU()
	nodes := 1
	if fab {
		nodes = fabricWorkers
		workers = max(1, runtime.NumCPU()/fabricWorkers) // at most nproc simulations in total
		e.coord = fabric.NewCoordinator(fabric.CoordinatorConfig{})
		e.coordHS = httptest.NewServer(e.coord.Handler())
		e.url = e.coordHS.URL
	}
	for i := 0; i < nodes; i++ {
		n := &serveNode{name: fmt.Sprintf("w%d", i)}
		e.nodes = append(e.nodes, n)
		if n.dur, err = service.OpenDurability(filepath.Join(dir, n.name), "", serveCacheBytes); err != nil {
			e.close()
			return nil, err
		}
		n.srv = service.New(service.Config{Workers: workers, Durability: n.dur})
		n.hs = httptest.NewServer(n.srv.Handler())
		if fab {
			n.agent = fabric.StartAgent(fabric.AgentConfig{Coordinator: e.coordHS.URL, Name: n.name, BaseURL: n.hs.URL, Status: n.srv.FabricStatus})
		} else {
			e.url = n.hs.URL
		}
	}
	if fab {
		deadline := time.Now().Add(30 * time.Second)
		for e.coord.Registry().Alive() < nodes {
			if time.Now().After(deadline) {
				e.close()
				return nil, fmt.Errorf("fabric workers did not register")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return e, nil
}

// close stops every goroutine and listener the set-up started and removes
// its data directory.
func (e *serveEnv) close() {
	for _, n := range e.nodes {
		if n.agent != nil {
			n.agent.Stop()
		}
	}
	if e.coordHS != nil {
		e.coordHS.Close()
		e.coord.Close()
	}
	for _, n := range e.nodes {
		if n.hs != nil {
			n.hs.Close()
		}
		if n.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = n.srv.Drain(ctx) // jobs are all finished; a drain error cannot lose results the run checks
			cancel()
		}
		if n.dur != nil {
			_ = n.dur.Close() // the data directory is removed next
		}
	}
	os.RemoveAll(e.dir)
}

// newBenchClient returns a client whose connections to base are capped at
// serveClients, shared by every goroutine that uses it.
func newBenchClient(base string) (*colcache.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	c := colcache.NewClient(base, &http.Client{Transport: t, Timeout: 60 * time.Second})
	c.PollInterval = servePoll
	return c, t
}

// outcome is one request as the client saw it.
type outcome struct {
	popular int // index into the popular set, or -1 for a fresh spec
	client  int
	fresh   int // the client's fresh-spec number when popular is -1
	// ok records a popular answer's check, made as it arrives; a fresh
	// answer keeps only sum, the SHA-256 of its JSON, for the check after
	// the window, so the run's memory does not grow with its results.
	ok       bool
	sum      [sha256.Size]byte
	accesses int64
	err      error
	cached   bool
	traced   bool
	latMs    float64 // client send → result in hand
	submitMs float64
	// Server timestamps of an uncached answer (from its JobInfo) and the
	// lag from the job finishing to the client seeing it.
	queueMs, runMs, pollLagMs float64
}

// request performs one closed-loop request the way Client.Simulate does
// (submit; a cached answer is terminal, otherwise poll to the end), keeping
// the JobInfo timestamps Simulate drops.
func request(ctx context.Context, cl *colcache.Client, spec colcache.SimSpec, tr *tracer, req uint64) (outcome, *colcache.SimResult) {
	out := outcome{traced: tr != nil}
	t0 := time.Now()
	info, err := cl.SubmitSimulate(ctx, spec)
	t1 := time.Now()
	if err == nil && !(info.State == colcache.StateDone && info.Result != nil) {
		info, err = cl.Wait(ctx, info.ID)
		if err == nil && (info.State != colcache.StateDone || info.Result == nil) {
			err = &colcache.JobFailedError{Info: info}
		}
	}
	t2 := time.Now()
	out.err = err
	out.latMs = ms(t2.Sub(t0))
	out.submitMs = ms(t1.Sub(t0))
	out.cached = info.Cached
	if err == nil {
		out.accesses = info.Result.TraceAccesses
	}
	root := tr.add(req, 0, "request", t0, t2)
	tr.add(req, root, "client.submit", t0, t1)
	if err != nil || info.Cached {
		return out, info.Result
	}
	wait := tr.add(req, root, "client.wait", t1, t2)
	if info.StartedAt != nil && info.FinishedAt != nil {
		out.queueMs = ms(info.StartedAt.Sub(info.SubmittedAt))
		out.runMs = ms(info.FinishedAt.Sub(*info.StartedAt))
		out.pollLagMs = ms(t2.Sub(*info.FinishedAt))
		tr.add(req, wait, "service.queue", info.SubmittedAt, *info.StartedAt)
		tr.add(req, wait, "service.run", *info.StartedAt, *info.FinishedAt)
	}
	return out, info.Result
}

// resultSum is the SHA-256 of a result's JSON encoding.
func resultSum(res *colcache.SimResult) [sha256.Size]byte {
	b, err := json.Marshal(res)
	if err != nil {
		return [sha256.Size]byte{} // matches no real result, so the check fails
	}
	return sha256.Sum256(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serveInputs are a run's generated specs.
type serveInputs struct {
	popular []colcache.SimSpec
	fresh   [][]colcache.SimSpec // per client
}

func genServeInputs(seed int64) serveInputs {
	in := serveInputs{popular: make([]colcache.SimSpec, servePopular), fresh: make([][]colcache.SimSpec, serveClients)}
	for i := range in.popular {
		in.popular[i] = genSpec(seed, int64(i+1))
	}
	for c := range in.fresh {
		for k := 0; k < serveFreshGen; k++ {
			in.fresh[c] = append(in.fresh[c], in.freshSpec(seed, c, k))
		}
	}
	return in
}

// freshSpec is client c's k-th fresh spec, from the set-up's pool while it
// lasts.
func (in serveInputs) freshSpec(seed int64, c, k int) colcache.SimSpec {
	if k < len(in.fresh[c]) {
		return in.fresh[c][k]
	}
	return genSpec(seed, int64(c+1)*1_000_000+int64(k))
}

func runServe(o options, r *report, fab bool) error {
	var in serveInputs
	env, done, err := measureSetup(r, func() (*serveEnv, func(), error) {
		in = genServeInputs(o.seed)
		e, err := startServe(o, fab)
		if err != nil {
			return nil, nil, err
		}
		return e, e.close, nil
	})
	if err != nil {
		return err
	}
	defer done()
	popular := in.popular
	ctx := context.Background()
	cl, transport := newBenchClient(env.url)
	defer transport.CloseIdleConnections()

	// Popular set: references first, then a warm-up pass that puts every
	// popular spec into the server's result cache.
	refs := make([]*reference, servePopular)
	for i := range popular {
		if refs[i], err = computeReference(popular[i], o.trace); err != nil {
			return fmt.Errorf("popular spec %d: %w", i, err)
		}
	}
	warm := make([]colcache.SimResult, servePopular)
	for i, spec := range popular {
		out, res := request(ctx, cl, spec, nil, 0)
		if o.mutate && i == 0 && res != nil {
			res.Cycles++
		}
		r.attempted++
		switch {
		case out.err != nil:
			r.fail("warm-up popular %d: %v", i, out.err)
		case !reflect.DeepEqual(*res, refs[i].res):
			r.fail("warm-up popular %d: served result differs from the in-process result:\n  got  %+v\n  want %+v", i, *res, refs[i].res)
		default:
			warm[i] = *res
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	outs := make([][]outcome, serveClients)
	for c := range outs {
		// Allocated up front so the heap does not grow with the request
		// count inside the window.
		outs[c] = make([]outcome, 0, int(o.seconds*4000)+1)
	}
	w := openWindow()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*7919 + int64(c)))
			zipf := rand.NewZipf(rng, serveZipfS, serveZipfV, servePopular-1)
			fresh := 0
			for k := uint64(0); time.Since(w.start).Seconds() < o.seconds; k++ {
				pop, spec := -1, colcache.SimSpec{}
				if rng.Intn(100) < serveFreshPct {
					spec = in.freshSpec(o.seed, c, fresh)
				} else {
					pop = int(zipf.Uint64())
					spec = popular[pop]
				}
				var t *tracer
				if k%2 == 1 {
					t = tr
				}
				out, res := request(ctx, cl, spec, t, uint64(c)<<32|k)
				out.popular, out.client, out.fresh = pop, c, fresh
				if pop < 0 {
					fresh++
				}
				if out.err == nil {
					if pop >= 0 {
						// A cached answer must equal the uncached answer
						// the warm-up saw.
						out.ok = reflect.DeepEqual(*res, warm[pop])
					} else {
						out.sum = resultSum(res)
					}
				}
				outs[c] = append(outs[c], out)
			}
		}(c)
	}
	wg.Wait()
	wall, peak := w.close()

	var all []outcome
	for _, co := range outs {
		all = append(all, co...)
	}
	var lat, cachedLat, uncachedLat, untracedLat, tracedLat []float64
	var rates []float64 // simulated accesses per host µs of each uncached answer
	for _, out := range all {
		if out.err != nil {
			continue
		}
		lat = append(lat, out.latMs)
		if out.traced {
			tracedLat = append(tracedLat, out.latMs)
		} else {
			untracedLat = append(untracedLat, out.latMs)
		}
		if out.cached {
			cachedLat = append(cachedLat, out.latMs)
		} else {
			uncachedLat = append(uncachedLat, out.latMs)
			rates = append(rates, float64(out.accesses)/(out.latMs*1e3))
		}
	}
	if len(uncachedLat) == 0 || len(cachedLat) == 0 {
		return fmt.Errorf("window too short: %d cached and %d uncached answers", len(cachedLat), len(uncachedLat))
	}
	// At the fast decile, as on the simulation workloads (see setJobMetrics).
	rate, _ := percentile(rates, 90)
	r.set("sim_maccess_per_s", rate, "M/s", fmt.Sprintf("90th percentile over %d uncached answers of accesses per second of request latency", len(rates)))
	r.set("req_per_s", float64(len(lat))/wall, "1/s", fmt.Sprintf("%d clients, closed loop, %d requests", serveClients, len(lat)))
	setLatency(r, "req_p10_ms", lat, 10)
	setLatency(r, "req_p50_ms", lat, 50)
	setLatency(r, "req_p99_ms", lat, 99)
	r.set("peak_heap_mb", peak, "MiB", fmt.Sprintf("window %.2f s", wall))
	setLatency(r, "cached_p50_ms", cachedLat, 50)
	setLatency(r, "uncached_p50_ms", uncachedLat, 50)
	setLatency(r, "uncached_p90_ms", uncachedLat, 90)
	r.set("client.poll_interval_ms", ms(servePoll), "ms", "Client.PollInterval")

	// Checks: popular answers were compared inline with the warm-up's;
	// every fresh answer must equal its in-process result.
	for _, out := range all {
		r.attempted++
		switch {
		case out.err != nil:
			r.fail("%v", out.err)
		case out.popular >= 0:
			if !out.ok {
				r.fail("popular %d (cached=%v): answer differs from the warm-up's uncached answer", out.popular, out.cached)
			}
		default:
			spec := in.freshSpec(o.seed, out.client, out.fresh)
			ref, err := computeReference(spec, false)
			if err != nil {
				return err
			}
			if resultSum(&ref.res) != out.sum {
				r.fail("fresh spec %+v: served result differs from the in-process result", spec)
			}
		}
	}
	if !o.trace {
		return nil
	}
	return serveLayers(o, r, tr, env, cl, popular, refs, all, tracedLat, untracedLat)
}

// serveLayers computes the serving workloads' per-layer metrics.
func serveLayers(o options, r *report, tr *tracer, env *serveEnv, cl *colcache.Client, popular []colcache.SimSpec,
	refs []*reference, all []outcome, tracedLat, untracedLat []float64) error {
	li := &layerInput{tlb: vm.DefaultTLBConfig}
	var counts simCounts
	for _, ref := range refs {
		counts.add(ref.counts)
		li.streams = append(li.streams, ref.probes...)
	}
	if _, err := probeLayers(r, tr, li); err != nil {
		return err
	}
	setSimCounts(r, "popular set, in-process", counts.accesses, counts.tlb, counts.l1, counts.l2, counts.cycles)
	r.set("memtrace.accesses", 0, "count", "no trace decoding on this workload")
	setOverhead(r, tracedLat, untracedLat)

	req := uint64(1)<<40 + 300
	var digest []float64
	for rep := 0; rep < probeReps; rep++ {
		for _, spec := range popular {
			t0 := time.Now()
			service.SimDigest(spec, nil)
			t1 := time.Now()
			tr.add(req, 0, "service.digest", t0, t1)
			digest = append(digest, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
	}
	digestUs := median(digest)
	r.set("service.digest_us", digestUs, "us", fmt.Sprintf("median of %d digests", len(digest)))

	var queue, run, lag, submit []float64
	for _, out := range all {
		if out.err == nil && !out.cached {
			queue = append(queue, out.queueMs)
			run = append(run, out.runMs)
			lag = append(lag, out.pollLagMs)
			submit = append(submit, out.submitMs)
		}
	}
	r.set("service.queue_wait_ms", median(queue), "ms", fmt.Sprintf("median StartedAt−SubmittedAt, n=%d uncached", len(queue)))
	r.set("service.run_ms", median(run), "ms", fmt.Sprintf("median FinishedAt−StartedAt, n=%d", len(run)))
	r.set("service.poll_lag_ms", median(lag), "ms", fmt.Sprintf("median seen−FinishedAt at a %v poll, n=%d", servePoll, len(lag)))
	r.set("service.submit_ms", median(submit), "ms", fmt.Sprintf("median submit call of an uncached request, n=%d", len(submit)))

	commitMs, err := probeWAL(tr, env.dir, popular)
	if err != nil {
		return err
	}
	r.set("wal.commit_ms", commitMs, "ms", "median Append with commit, spec-sized records, same filesystem")
	getUs, putUs, err := probeResultCache(tr, env.dir, refs)
	if err != nil {
		return err
	}
	r.set("resultcache.get_us", getUs, "us", "median Get of a result-sized blob")
	r.set("resultcache.put_us", putUs, "us", "median Put of a result-sized blob")
	var rc resultcache.Counters
	for _, n := range env.nodes {
		c := n.dur.Results.Stats()
		rc.Hits += c.Hits
		rc.Misses += c.Misses
	}
	r.set("resultcache.hits", float64(rc.Hits), "count", "server result cache, whole run")
	r.set("resultcache.misses", float64(rc.Misses), "count", "server result cache, whole run")
	r.set("resultcache.hit_ratio", ratio(rc.Hits, rc.Hits+rc.Misses), "ratio", "server result cache, whole run")

	// Decomposition: digest and result-cache get for every answer; the
	// accepted-record commit, queue wait and job run (simulation, done
	// commit and put) for every uncached one. The rest is HTTP, JSON and
	// polling.
	var modeled, measured float64
	for _, out := range all {
		if out.err != nil || !out.traced {
			continue
		}
		measured += out.latMs
		modeled += digestUs / 1e3
		if out.cached {
			modeled += getUs / 1e3
		} else {
			modeled += commitMs + out.queueMs + out.runMs
		}
	}
	r.set("decomp.explained_frac", modeled/measured, "ratio", "digest + cache get, or commit + queue + run, / traced request time")

	if env.coord != nil {
		if err := probeFabric(r, tr, env, cl, popular); err != nil {
			return err
		}
	}
	return finishTrace(o, r, tr)
}

// probeWAL appends spec-sized committed records to a fresh log in the run's
// data directory; ms per Append.
func probeWAL(tr *tracer, dir string, popular []colcache.SimSpec) (float64, error) {
	log, _, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var times []float64
	for i := 0; i < 50; i++ {
		meta, err := json.Marshal(popular[i%len(popular)])
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := log.Append(wal.Record{Type: 1, Meta: meta}, true); err != nil {
			return 0, err
		}
		t1 := time.Now()
		tr.add(uint64(1)<<40+301, 0, "wal.append_commit", t0, t1)
		times = append(times, ms(t1.Sub(t0)))
	}
	return median(times), nil
}

// probeResultCache puts every popular result into a fresh cache in the
// run's data directory and reads each back; µs per call.
func probeResultCache(tr *tracer, dir string, refs []*reference) (getUs, putUs float64, err error) {
	rc, err := resultcache.Open(filepath.Join(dir, "probe-results"), 0)
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for i, ref := range refs {
		blob, err := json.Marshal(colcache.StoredResult{Kind: "simulate", Result: &ref.res})
		if err != nil {
			return 0, 0, err
		}
		key := resultcache.Digest([]byte(fmt.Sprint("probe", i)))
		t0 := time.Now()
		if err := rc.Put(key, blob, false); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		tr.add(uint64(1)<<40+302, 0, "resultcache.put", t0, t1)
		puts = append(puts, float64(t1.Sub(t0).Nanoseconds())/1e3)
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			got, ok := rc.Get(key)
			t1 := time.Now()
			if !ok || !bytes.Equal(got, blob) {
				return 0, 0, fmt.Errorf("result cache probe: blob %d did not read back", i)
			}
			tr.add(uint64(1)<<40+302, 0, "resultcache.get", t0, t1)
			gets = append(gets, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
	}
	return median(gets), median(puts), nil
}

// probeFabric measures the coordinator hop: cached requests for the same
// popular specs sent through the coordinator and straight to the worker
// that owns them, interleaved so host drift cancels.
func probeFabric(r *report, tr *tracer, env *serveEnv, cl *colcache.Client, popular []colcache.SimSpec) error {
	ctx := context.Background()
	direct := make(map[string]*colcache.Client)
	for _, n := range env.nodes {
		c, t := newBenchClient(n.hs.URL)
		defer t.CloseIdleConnections()
		direct[n.name] = c
	}
	var via, straight []float64
	req := uint64(1)<<40 + 400
	for rep := 0; rep < 10; rep++ {
		for _, spec := range popular {
			owner, ok := env.coord.Ring().Owner(service.SimDigest(spec, nil))
			if !ok {
				return fmt.Errorf("fabric probe: empty ring")
			}
			for _, leg := range []struct {
				name string
				c    *colcache.Client
				into *[]float64
			}{{"fabric.via_coordinator", cl, &via}, {"fabric.direct", direct[owner], &straight}} {
				req++
				t0 := time.Now()
				info, err := leg.c.SubmitSimulate(ctx, spec)
				t1 := time.Now()
				if err != nil || !info.Cached {
					return fmt.Errorf("fabric probe: %s: cached=%v err=%v", leg.name, info.Cached, err)
				}
				tr.add(req, 0, leg.name, t0, t1)
				*leg.into = append(*leg.into, ms(t1.Sub(t0)))
			}
		}
	}
	r.set("fabric.hop_ms", median(via)-median(straight), "ms",
		fmt.Sprintf("median cached via coordinator %.3f − direct %.3f, n=%d each", median(via), median(straight), len(via)))

	var view fabric.ClusterView
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(env.url + "/fabric/v1/nodes")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return err
	}
	var total, most int64
	for _, wv := range view.Workers {
		n := wv.Ledger["accepted"] + wv.Ledger["cached"]
		total += n
		most = max(most, n)
	}
	r.set("fabric.forward_errors", float64(view.ForwardErrors), "count", "coordinator, whole run")
	r.set("fabric.max_node_share", ratio(most, total), "ratio", fmt.Sprintf("largest worker share of %d routed requests", total))
	return nil
}
