package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/service"
)

// testWorker is one in-process worker: a real service.Server behind an
// httptest listener, kept registered by a real heartbeat agent.
type testWorker struct {
	name  string
	srv   *service.Server
	http  *httptest.Server
	agent *Agent
}

func (w *testWorker) stop() {
	if w.agent != nil {
		w.agent.Stop()
	}
	w.http.Close()
}

// kill simulates a crash: the heartbeats stop and the listener drops
// connections, with no drain.
func (w *testWorker) kill() {
	w.agent.Stop()
	w.agent = nil
	w.http.CloseClientConnections()
	w.http.Close()
}

func startTestWorker(t *testing.T, coordURL, name string, cfg service.Config) *testWorker {
	t.Helper()
	return startWrappedWorker(t, coordURL, name, cfg, func(h http.Handler) http.Handler { return h })
}

// startWrappedWorker is startTestWorker with the worker's API behind wrap.
func startWrappedWorker(t *testing.T, coordURL, name string, cfg service.Config, wrap func(http.Handler) http.Handler) *testWorker {
	t.Helper()
	srv := service.New(cfg)
	hs := httptest.NewServer(wrap(srv.Handler()))
	w := &testWorker{name: name, srv: srv, http: hs}
	w.agent = StartAgent(AgentConfig{
		Coordinator: coordURL,
		Name:        name,
		BaseURL:     hs.URL,
		Interval:    50 * time.Millisecond,
		Status:      srv.FabricStatus,
	})
	t.Cleanup(w.stop)
	return w
}

func startTestCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, string) {
	t.Helper()
	if cfg.PeerTTL == 0 {
		cfg.PeerTTL = 300 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord := NewCoordinator(cfg)
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		hs.Close()
		coord.Close()
	})
	return coord, hs.URL
}

func waitAlive(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cv := clusterViewOf(t, coordURL)
		alive := 0
		for _, w := range cv.Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d alive workers", n)
}

func clusterViewOf(t *testing.T, coordURL string) ClusterView {
	t.Helper()
	resp, err := http.Get(coordURL + "/fabric/v1/nodes")
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	defer resp.Body.Close()
	var cv ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatalf("nodes decode: %v", err)
	}
	return cv
}

func streamSpec(size uint64) colcache.SimSpec {
	return colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: size, Passes: 1},
	}
}

func submitVia(t *testing.T, coordURL string, spec colcache.SimSpec) colcache.JobInfo {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var info colcache.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	if info.Digest == "" || info.Node == "" {
		t.Fatalf("submission missing fabric fields: %+v", info)
	}
	return info
}

func TestCoordinatorRoutesByDigest(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startTestWorker(t, coordURL, "w1", service.Config{})
	startTestWorker(t, coordURL, "w2", service.Config{})
	waitAlive(t, coordURL, 2)

	// The same spec routes to the same worker every time: that is the
	// warm-cache affinity the ring exists for.
	first := submitVia(t, coordURL, streamSpec(4096))
	for i := 0; i < 3; i++ {
		again := submitVia(t, coordURL, streamSpec(4096))
		if again.Node != first.Node {
			t.Fatalf("resubmission routed to %s, first went to %s", again.Node, first.Node)
		}
		if again.Digest != first.Digest {
			t.Fatalf("digest changed across identical submissions")
		}
	}

	// Distinct specs spread over both workers (12 digests on 2 nodes: the
	// chance of a one-sided split is ~2^-11 per hash choice, i.e. never —
	// the hash is deterministic, so this either always passes or the
	// placement is broken).
	nodes := map[string]bool{}
	client := colcache.NewClient(coordURL, nil)
	var ids []string
	for i := 0; i < 12; i++ {
		info := submitVia(t, coordURL, streamSpec(uint64(4096+64*i)))
		nodes[info.Node] = true
		if info.ID != "" {
			ids = append(ids, info.ID)
		}
	}
	if len(nodes) != 2 {
		t.Fatalf("12 distinct digests landed on %d nodes, want 2", len(nodes))
	}

	// Every accepted job polls to done through the coordinator, under its
	// fabric ID.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		final, err := client.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != colcache.StateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
		if final.ID != id {
			t.Fatalf("poll answered ID %s for fabric ID %s", final.ID, id)
		}
	}

	cv := clusterViewOf(t, coordURL)
	if cv.JobsRouted < 13 {
		t.Fatalf("JobsRouted = %d, want >= 13", cv.JobsRouted)
	}
	if cv.StealFailures != 0 || cv.JobsStolen != 0 {
		t.Fatalf("unexpected stealing on a healthy cluster: %+v", cv)
	}
}

func TestCoordinatorStealsFromDeadWorker(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 250 * time.Millisecond})
	w1 := startTestWorker(t, coordURL, "w1", service.Config{})
	// The victim never answers a poll, so the background reconciler cannot
	// retire a victim-owned job that finished before the kill.
	w2 := startWrappedWorker(t, coordURL, "w2", service.Config{}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				writeShed(w, http.StatusServiceUnavailable, 1, "polls hidden")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	waitAlive(t, coordURL, 2)

	// Submit a batch without polling: the coordinator cannot know which
	// are terminal, so every victim-owned job must be stolen on death.
	var ids []string
	victims := 0
	for i := 0; i < 10; i++ {
		info := submitVia(t, coordURL, streamSpec(uint64(2048+64*i)))
		ids = append(ids, info.ID)
		if info.Node == "w2" {
			victims++
		}
	}
	if victims == 0 {
		t.Fatalf("no jobs routed to the victim worker; placement is broken")
	}
	w2.kill()

	client := colcache.NewClient(coordURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		final, err := client.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != colcache.StateDone {
			t.Fatalf("job %s ended %s after steal: %s", id, final.State, final.Error)
		}
		if final.Node == "w2" {
			t.Fatalf("job %s reported done on the dead worker", id)
		}
	}

	cv := clusterViewOf(t, coordURL)
	if cv.JobsStolen == 0 {
		t.Fatalf("no jobs stolen although %d were routed to the dead worker", victims)
	}
	if cv.StealFailures != 0 {
		t.Fatalf("%d steal failures; every job had a live successor", cv.StealFailures)
	}
	_ = w1
}

func TestCoordinatorCachedRelay(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	dur, err := service.OpenDurability(t.TempDir(), "", 0)
	if err != nil {
		t.Fatalf("durability: %v", err)
	}
	t.Cleanup(func() { dur.Close() })
	startTestWorker(t, coordURL, "w1", service.Config{Durability: dur})
	waitAlive(t, coordURL, 1)

	info := submitVia(t, coordURL, streamSpec(4096))
	client := colcache.NewClient(coordURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Wait(ctx, info.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Resubmission is answered from the worker's result cache and relayed
	// as a terminal 200 by the coordinator.
	body, _ := json.Marshal(streamSpec(4096))
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 cached", resp.StatusCode)
	}
	var cached colcache.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&cached); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !cached.Cached || cached.Result == nil || cached.Node != "w1" {
		t.Fatalf("cached relay missing fields: %+v", cached)
	}

	// The digest read path is proxied with its HTTP cache validators.
	resp2, err := http.Get(coordURL + "/v1/results/" + info.Digest)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp2.StatusCode)
	}
	if et := resp2.Header.Get("ETag"); et != `"`+info.Digest+`"` {
		t.Fatalf("result ETag = %q, want the digest", et)
	}
	if cc := resp2.Header.Get("Cache-Control"); cc == "" {
		t.Fatal("result missing Cache-Control")
	}

	req, _ := http.NewRequest(http.MethodGet, coordURL+"/v1/results/"+info.Digest, nil)
	req.Header.Set("If-None-Match", `"`+info.Digest+`"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("conditional result: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional result: HTTP %d, want 304", resp3.StatusCode)
	}
}

func TestCoordinatorRelaysInspectStream(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startTestWorker(t, coordURL, "w1", service.Config{InspectEvery: 4096})
	waitAlive(t, coordURL, 1)

	// A job long enough that the SSE attach lands while it is running.
	spec := colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: 1 << 20, Passes: 8},
	}
	info := submitVia(t, coordURL, spec)

	resp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect")
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("inspect Content-Type = %q", ct)
	}
	// Walk the relayed event stream to its terminal event.
	var frames int
	var lastEvent, lastData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "frame" {
				frames++
			}
			if event != "" {
				lastEvent, lastData = event, data
			}
			event, data = "", ""
		case len(line) > 0 && line[0] == ':':
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = line[6:]
		}
		if lastEvent == "end" {
			break
		}
	}
	if lastEvent != "end" {
		t.Fatalf("relayed stream did not end cleanly (last event %q)", lastEvent)
	}
	var end struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lastData), &end); err != nil || end.Reason != colcache.StateDone {
		t.Fatalf("relayed end payload %q, want reason done", lastData)
	}
	if frames == 0 {
		t.Fatal("no frames relayed from the worker's live stream")
	}

	// The time-travel relay answers under the fabric ID.
	fresp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect/frames?from=0&to=1")
	if err != nil {
		t.Fatalf("frames: %v", err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("frames: HTTP %d", fresp.StatusCode)
	}
	var doc colcache.InspectFrames
	if err := json.NewDecoder(fresp.Body).Decode(&doc); err != nil {
		t.Fatalf("frames decode: %v", err)
	}
	if doc.Job != info.ID || doc.Count != 2 || doc.First != 0 {
		t.Fatalf("frames doc = job %s count %d first %d, want fabric ID and [0,1]", doc.Job, doc.Count, doc.First)
	}

	// Inverted ranges and unknown jobs relay their errors.
	bresp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect/frames?from=3&to=1")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range relay: HTTP %d, want 400", bresp.StatusCode)
	}
	nresp, err := http.Get(coordURL + "/v1/jobs/f99999999/inspect")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job relay: HTTP %d, want 404", nresp.StatusCode)
	}
}

func TestRegistryLeaseExpiry(t *testing.T) {
	reg := NewRegistry(100 * time.Millisecond)
	now := time.Now()
	if !reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now) {
		t.Fatal("first heartbeat not newly alive")
	}
	if reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now.Add(50*time.Millisecond)) {
		t.Fatal("renewal reported newly alive")
	}
	if dead := reg.Sweep(now.Add(80 * time.Millisecond)); len(dead) != 0 {
		t.Fatalf("lease expired early: %v", dead)
	}
	dead := reg.Sweep(now.Add(200 * time.Millisecond))
	if len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("Sweep = %v, want [a]", dead)
	}
	if reg.Alive() != 0 {
		t.Fatalf("Alive() = %d after expiry", reg.Alive())
	}
	// A comeback heartbeat is newly alive again.
	if !reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now.Add(300*time.Millisecond)) {
		t.Fatal("comeback heartbeat not newly alive")
	}
	if !reg.MarkDead("a") || reg.MarkDead("a") {
		t.Fatal("MarkDead not edge-triggered")
	}
}

func TestCoordinatorShedsWithNoWorkers(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 100 * time.Millisecond})
	body, _ := json.Marshal(streamSpec(4096))
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed missing Retry-After")
	}
}

func TestHash64Deterministic(t *testing.T) {
	if hash64("a", "b") != hash64("a", "b") {
		t.Fatal("hash64 not deterministic")
	}
	if hash64("a", "b") == hash64("ab") {
		t.Fatal("hash64 joins parts without separation")
	}
	if hash64(fmt.Sprintf("k%d", 1)) == hash64(fmt.Sprintf("k%d", 2)) {
		t.Fatal("distinct keys collided (astronomically unlikely)")
	}
}

func waitPending(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if clusterViewOf(t, coordURL).PendingJobs == n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("pending jobs never reached %d (now %d)", n, clusterViewOf(t, coordURL).PendingJobs)
}

// pollVia fetches one job document through the coordinator.
func pollVia(t *testing.T, coordURL, id string) (int, colcache.JobInfo) {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("poll %s: %v", id, err)
	}
	defer resp.Body.Close()
	var info colcache.JobInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("poll %s decode: %v", id, err)
		}
	}
	return resp.StatusCode, info
}

// heartbeatOnce registers a worker with one plain heartbeat request.
func heartbeatOnce(t *testing.T, coordURL, name, baseURL string) {
	t.Helper()
	body, _ := json.Marshal(Heartbeat{Name: name, BaseURL: baseURL})
	resp, err := http.Post(coordURL+"/fabric/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", resp.StatusCode)
	}
}

// scriptedWorker is a fake worker whose jobs change state only when the
// test says so: every submission is accepted as running, and polls report
// the scripted state.
type scriptedWorker struct {
	mu     sync.Mutex
	seq    int
	states map[string]string
}

func (s *scriptedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/simulate":
		s.mu.Lock()
		s.seq++
		id := fmt.Sprintf("w%d", s.seq)
		s.states[id] = colcache.StateRunning
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, colcache.JobInfo{ID: id, Kind: "simulate", State: colcache.StateRunning})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		s.mu.Lock()
		state, ok := s.states[id]
		s.mu.Unlock()
		if !ok {
			writeJSON(w, http.StatusNotFound, colcache.APIError{Error: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, colcache.JobInfo{ID: id, Kind: "simulate", State: state})
	default:
		http.NotFound(w, r)
	}
}

func (s *scriptedWorker) finish(ids ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		s.states[id] = colcache.StateDone
	}
}

// TestCoordinatorReconcilesUnpolledRoutes: a job nobody polls is retired
// by the background reconciler, and its terminal document stays
// answerable after the worker is gone. Inspect relays for it answer 404
// once the worker's lease has expired, without dialling the dead worker.
func TestCoordinatorReconcilesUnpolledRoutes(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	w1 := startTestWorker(t, coordURL, "w1", service.Config{})
	waitAlive(t, coordURL, 1)

	info := submitVia(t, coordURL, streamSpec(4096))
	waitPending(t, coordURL, 0)
	w1.kill()

	code, final := pollVia(t, coordURL, info.ID)
	if code != http.StatusOK {
		t.Fatalf("poll after reconcile: HTTP %d", code)
	}
	if final.State != colcache.StateDone || final.ID != info.ID || final.Node != "w1" || final.Recovered {
		t.Fatalf("reconciled document = %+v", final)
	}
	if final.Digest != info.Digest || final.Result == nil {
		t.Fatalf("reconciled document lost digest or result: %+v", final)
	}

	waitAlive(t, coordURL, 0)
	before := clusterViewOf(t, coordURL).ForwardErrors
	for _, path := range []string{"/inspect", "/inspect/frames"} {
		resp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on an expired worker: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	if after := clusterViewOf(t, coordURL).ForwardErrors; after != before {
		t.Fatalf("inspect dialled the expired worker: forward_errors %d -> %d", before, after)
	}
}

// TestCoordinatorReplacesJobLostByLiveWorker: a worker that restarts over
// fresh state behind the same URL answers 404 for the job; the next poll
// re-places it from the retained body and it finishes as recovered.
func TestCoordinatorReplacesJobLostByLiveWorker(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	first := service.New(service.Config{})
	fresh := service.New(service.Config{})
	t.Cleanup(func() {
		first.Drain(context.Background())
		fresh.Drain(context.Background())
	})
	var mu sync.Mutex
	var restart sync.Once
	handler := first.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			// The first accepted submission is the last thing the old
			// process does: every later request meets the fresh one.
			restart.Do(func() {
				mu.Lock()
				handler = fresh.Handler()
				mu.Unlock()
			})
		}
	}))
	t.Cleanup(hs.Close)
	agent := StartAgent(AgentConfig{Coordinator: coordURL, Name: "w1", BaseURL: hs.URL, Interval: 50 * time.Millisecond})
	t.Cleanup(agent.Stop)
	waitAlive(t, coordURL, 1)

	info := submitVia(t, coordURL, streamSpec(4096))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := colcache.NewClient(coordURL, nil).Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != colcache.StateDone || !final.Recovered || final.ID != info.ID || final.Node != "w1" {
		t.Fatalf("re-placed job ended %+v", final)
	}
	if cv := clusterViewOf(t, coordURL); cv.JobsStolen != 1 || cv.StealFailures != 0 {
		t.Fatalf("re-placement books: stolen %d, failures %d; want 1, 0", cv.JobsStolen, cv.StealFailures)
	}
}

// TestCoordinatorRelaysWorkerAnswersVerbatim: backpressure and validation
// answers reach the client with the worker's status, Retry-After, content
// type and body, and are not retried.
func TestCoordinatorRelaysWorkerAnswersVerbatim(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 10 * time.Second})
	type answer struct {
		status            int
		retryAfter, ctype string
		body              string
	}
	answers := []answer{
		{http.StatusTooManyRequests, "7", "application/json", `{"error":"queue full (9 waiting)","retry_after_seconds":7}` + "\n"},
		{http.StatusBadRequest, "", "text/plain; charset=utf-8", "bad spec: sets must be a power of two\n"},
	}
	var calls atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if r.Method != http.MethodPost || r.URL.Path != "/v1/simulate" || n >= len(answers) {
			http.Error(w, "unexpected request", http.StatusInternalServerError)
			return
		}
		a := answers[n]
		if a.retryAfter != "" {
			w.Header().Set("Retry-After", a.retryAfter)
		}
		w.Header().Set("Content-Type", a.ctype)
		w.WriteHeader(a.status)
		io.WriteString(w, a.body)
	}))
	t.Cleanup(fake.Close)
	heartbeatOnce(t, coordURL, "fake", fake.URL)
	waitAlive(t, coordURL, 1)

	spec, _ := json.Marshal(streamSpec(4096))
	for _, want := range answers {
		resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want.status || string(body) != want.body {
			t.Fatalf("relayed HTTP %d %q, want HTTP %d %q", resp.StatusCode, body, want.status, want.body)
		}
		if got := resp.Header.Get("Retry-After"); got != want.retryAfter {
			t.Fatalf("relayed Retry-After %q, want %q", got, want.retryAfter)
		}
		if got := resp.Header.Get("Content-Type"); got != want.ctype {
			t.Fatalf("relayed Content-Type %q, want %q", got, want.ctype)
		}
	}
	if n := calls.Load(); n != int32(len(answers)) {
		t.Fatalf("worker saw %d submissions, want %d (no retries)", n, len(answers))
	}
	if cv := clusterViewOf(t, coordURL); cv.JobsRouted != 0 || cv.PendingJobs != 0 || cv.ForwardErrors != 0 {
		t.Fatalf("relayed rejections changed the books: %+v", cv)
	}
}

// TestCoordinatorRetentionEvictsOldestTerminal: past RetainJobs the
// oldest terminal routes go first, and a non-terminal route never goes.
func TestCoordinatorRetentionEvictsOldestTerminal(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{RetainJobs: 2})
	sw := &scriptedWorker{states: map[string]string{}}
	hs := httptest.NewServer(sw)
	t.Cleanup(hs.Close)
	agent := StartAgent(AgentConfig{Coordinator: coordURL, Name: "w1", BaseURL: hs.URL, Interval: 50 * time.Millisecond})
	t.Cleanup(agent.Stop)
	waitAlive(t, coordURL, 1)

	submit := func(i int) string { return submitVia(t, coordURL, streamSpec(uint64(4096+64*i))).ID }
	expect := func(id string, code int, state string) {
		t.Helper()
		got, info := pollVia(t, coordURL, id)
		if got != code || (code == http.StatusOK && info.State != state) {
			t.Fatalf("poll %s: HTTP %d state %q, want HTTP %d state %q", id, got, info.State, code, state)
		}
	}

	// Three running routes exceed the cap of two: none is terminal, so
	// none is evicted.
	a, b, c := submit(0), submit(1), submit(2)
	sw.finish("w2")
	waitPending(t, coordURL, 2)
	d := submit(3) // evicts b, the only terminal route
	expect(a, http.StatusOK, colcache.StateRunning)
	expect(b, http.StatusNotFound, "")
	expect(c, http.StatusOK, colcache.StateRunning)
	expect(d, http.StatusOK, colcache.StateRunning)

	// All three terminal: the next route evicts the two oldest and keeps
	// the newest terminal one.
	sw.finish("w1", "w3", "w4")
	waitPending(t, coordURL, 0)
	e := submit(4)
	expect(a, http.StatusNotFound, "")
	expect(c, http.StatusNotFound, "")
	expect(d, http.StatusOK, colcache.StateDone)
	expect(e, http.StatusOK, colcache.StateRunning)
}

// TestCoordinatorOversizedSubmission: a body over MaxBodyBytes is 413,
// the same answer a worker gives.
func TestCoordinatorOversizedSubmission(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{MaxBodyBytes: 1024})
	spec := streamSpec(4096)
	spec.Label = strings.Repeat("x", 4096)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestCoordinatorInspectHangupSparesWorker: an SSE subscriber that hangs up
// before the worker has sent its headers ends the relay, but the cancelled
// dial is the subscriber's doing: the worker is neither counted as a
// forward error nor expired.
func TestCoordinatorInspectHangupSparesWorker(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{PeerTTL: 10 * time.Second, Logf: t.Logf})
	api := coord.Handler()
	relayDone := make(chan struct{}, 1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/inspect") {
			relayDone <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		hs.Close()
		coord.Close()
	})
	coordURL := hs.URL

	sw := &scriptedWorker{states: map[string]string{}}
	inspectSeen := make(chan struct{}, 1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/inspect") {
			inspectSeen <- struct{}{}
			<-r.Context().Done() // no headers until the coordinator hangs up
			return
		}
		sw.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	heartbeatOnce(t, coordURL, "w1", worker.URL)
	waitAlive(t, coordURL, 1)
	info := submitVia(t, coordURL, streamSpec(4096))
	before := clusterViewOf(t, coordURL).ForwardErrors

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/v1/jobs/"+info.ID+"/inspect", nil)
	subscriberDone := make(chan struct{})
	go func() {
		defer close(subscriberDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal(what)
		}
	}
	waitFor(inspectSeen, "worker never saw the inspect request")
	cancel()
	waitFor(relayDone, "relay never returned after the hang-up")
	waitFor(subscriberDone, "subscriber never returned after its hang-up")

	cv := clusterViewOf(t, coordURL)
	if cv.ForwardErrors != before {
		t.Fatalf("subscriber hang-up counted against the worker: forward_errors %d -> %d", before, cv.ForwardErrors)
	}
	if len(cv.Workers) != 1 || !cv.Workers[0].Alive {
		t.Fatalf("subscriber hang-up expired a healthy worker: %+v", cv.Workers)
	}
	if code, got := pollVia(t, coordURL, info.ID); code != http.StatusOK || got.State != colcache.StateRunning || got.Node != "w1" {
		t.Fatalf("poll after hang-up: HTTP %d %+v", code, got)
	}
}
