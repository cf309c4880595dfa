package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	colcache "colcache"
	"colcache/internal/service"
)

// CoordinatorConfig parameterizes a Coordinator. Zero fields take the
// documented defaults.
type CoordinatorConfig struct {
	// VNodes is the virtual-node count per worker (default DefaultVNodes).
	VNodes int
	// PeerTTL expires a worker that stops heartbeating (default 2s). The
	// failure detector sweeps every PeerTTL/4, at most every 25ms.
	PeerTTL time.Duration
	// MaxBodyBytes bounds a submission body and a worker's buffered answer
	// (default 32 MiB).
	MaxBodyBytes int64
	// RetainJobs bounds the routing table; oldest terminal routes are
	// evicted first (default 16384).
	RetainJobs int
	// Logf receives membership and stealing events (default: silent).
	Logf func(format string, args ...any)
}

// forwardTimeout bounds one buffered call to a worker. A streaming relay
// is bounded by its subscriber's request instead.
const forwardTimeout = 30 * time.Second

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.PeerTTL <= 0 {
		c.PeerTTL = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 16384
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// submission is a client's request as the coordinator retains it: the
// steal currency. If the owning worker dies, the coordinator places the
// same request with the digest's new ring owner.
type submission struct {
	digest      string
	kind        string
	path        string // "/v1/simulate" or "/v1/sweep"
	rawQuery    string // octet-stream machine selection rides in the query
	contentType string
	body        []byte // dropped once the job is terminal
}

// routedJob is the coordinator's record of one forwarded submission.
type routedJob struct {
	fabricID string
	accepted time.Time

	mu sync.Mutex
	submission
	node     string // current assignment
	workerID string // job ID on that node
	stolen   bool
	stealing bool
	terminal bool
	failMsg  string            // set when stealing exhausted every option
	cached   *colcache.JobInfo // the retained terminal document
}

// Coordinator is the fabric control plane: it owns the ring and the
// registry, serves the same /v1 data-plane API as a worker (proxying by
// digest), and re-routes the unfinished jobs of dead workers.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	reg    *Registry
	mux    *http.ServeMux
	client *http.Client
	start  time.Time

	mu      sync.Mutex
	seq     int64
	jobs    map[string]*routedJob
	order   []string // insertion order, for retention eviction
	byNode  map[string]int64
	stopc   chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	routed        atomic.Int64
	forwardErrors atomic.Int64
	steals        atomic.Int64
	stealFailures atomic.Int64
	cachedRelays  atomic.Int64
}

// ClusterView is the document of GET /fabric/v1/nodes: the membership
// table plus the coordinator's own books — what colload -fabric
// reconciles against the per-node ledgers.
type ClusterView struct {
	VNodes        int        `json:"vnodes"`
	Workers       []NodeView `json:"workers"`
	PendingJobs   int        `json:"pending_jobs"`
	JobsRouted    int64      `json:"jobs_routed"`
	JobsStolen    int64      `json:"jobs_stolen"`
	StealFailures int64      `json:"steal_failures"`
	ForwardErrors int64      `json:"forward_errors"`
	CachedRelays  int64      `json:"cached_relays"`
}

// RouteView is the document of GET /fabric/v1/route/{digest}: where a
// content address routes right now. The chaos test measures join/leave
// remapping through this endpoint.
type RouteView struct {
	Digest     string   `json:"digest"`
	Node       string   `json:"node"`
	Successors []string `json:"successors,omitempty"`
}

// NewCoordinator builds a coordinator and starts its failure detector.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		reg:    NewRegistry(cfg.PeerTTL),
		mux:    http.NewServeMux(),
		client: &http.Client{},
		start:  time.Now(),
		jobs:   make(map[string]*routedJob),
		byNode: make(map[string]int64),
		stopc:  make(chan struct{}),
	}
	c.mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("GET /fabric/v1/nodes", c.handleNodes)
	c.mux.HandleFunc("GET /fabric/v1/route/{digest}", c.handleRoute)
	c.mux.HandleFunc("POST /v1/simulate", c.handleSubmit)
	c.mux.HandleFunc("POST /v1/sweep", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handlePoll)
	c.mux.HandleFunc("GET /v1/jobs/{id}/inspect", c.handleInspectStream)
	c.mux.HandleFunc("GET /v1/jobs/{id}/inspect/frames", c.handleInspectFrames)
	c.mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	c.mux.HandleFunc("GET /v1/results/{digest}", c.handleResult)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)

	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Handler returns the coordinator's root HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the live ring (tests and the route endpoint read it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Registry exposes the membership table.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Close stops the failure detector and any in-flight steal loops.
func (c *Coordinator) Close() {
	c.stopped.Do(func() { close(c.stopc) })
	c.wg.Wait()
}

// sweeper is the lease-based failure detector: workers that miss
// heartbeats past the TTL are declared dead, removed from the ring, and
// their unfinished jobs stolen onto ring successors.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(max(c.cfg.PeerTTL/4, 25*time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case now := <-tick.C:
			for _, name := range c.reg.Sweep(now) {
				c.nodeLost(name, "missed heartbeats")
			}
			c.reconcile(32)
		}
	}
}

// reconcile retires routed jobs whose terminal state no client ever
// polled for (the submitter hung up): without it those routes would hold
// their steal bodies until eviction and count as pending forever. Each
// tick refreshes up to limit non-terminal assignments from their workers,
// and re-places the jobs a live worker answers 404 for, as a poll would.
func (c *Coordinator) reconcile(limit int) {
	c.mu.Lock()
	var stale []*routedJob
	for _, id := range c.order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		take := !j.terminal && !j.stealing
		j.mu.Unlock()
		if take {
			stale = append(stale, j)
			if len(stale) >= limit {
				break
			}
		}
	}
	c.mu.Unlock()
	for _, j := range stale {
		node, workerID := j.assignment()
		if _, status := c.refresh(j, node, workerID); status == http.StatusNotFound {
			c.replaceLost(j, workerID)
		}
	}
}

// refresh asks the worker of j's assignment (node, workerID) for the
// job's current state and adopts the answer. It returns the adopted
// document (nil when the worker could not be called or answered without
// one) and the worker's status (0 when it could not be called). Expired
// workers are left to the steal path.
func (c *Coordinator) refresh(j *routedJob, node, workerID string) (*colcache.JobInfo, int) {
	resp, payload, err := c.call(node, hop{method: http.MethodGet, path: "/v1/jobs/" + workerID})
	if err != nil {
		return nil, 0
	}
	var info colcache.JobInfo
	if resp.StatusCode != http.StatusOK || json.Unmarshal(payload, &info) != nil {
		return nil, resp.StatusCode
	}
	c.adopt(j, node, workerID, &info)
	return &info, resp.StatusCode
}

// replaceLost handles a live worker's 404 for j's assignment workerID: the
// worker no longer knows the job (it restarted over fresh state, or evicted
// it), so the assignment is lost even though the node is alive. The job is
// re-placed from the retained body in the background, exactly like a
// steal — unless it finished, is already being re-placed, or moved to
// another assignment meanwhile.
func (c *Coordinator) replaceLost(j *routedJob, workerID string) {
	j.mu.Lock()
	replace := !j.terminal && !j.stealing && j.workerID == workerID
	if replace {
		j.stealing = true
	}
	j.mu.Unlock()
	if replace {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.stealJob(j)
		}()
	}
}

// workerDown expires a worker immediately (connection-refused beats the
// lease timer) and triggers stealing exactly once per death.
func (c *Coordinator) workerDown(name, reason string) {
	if c.reg.MarkDead(name) {
		c.nodeLost(name, reason)
	}
}

// nodeLost handles an already-expired worker: off the ring, jobs stolen.
func (c *Coordinator) nodeLost(name, reason string) {
	c.ring.Remove(name)
	c.cfg.Logf("fabric: worker %s down (%s); re-routing its unfinished jobs", name, reason)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.stealFrom(name)
	}()
}

// stealFrom re-routes every unfinished job assigned to a dead worker.
// The WAL on the dead node still holds those jobs — if it ever comes
// back it will finish them into its result cache, harmlessly — but the
// fabric does not wait: the coordinator retained each accepted body, so
// the ring successor can take over now.
func (c *Coordinator) stealFrom(dead string) {
	c.mu.Lock()
	var victims []*routedJob
	for _, j := range c.jobs {
		j.mu.Lock()
		take := !j.terminal && !j.stealing && j.node == dead
		if take {
			j.stealing = true
		}
		j.mu.Unlock()
		if take {
			victims = append(victims, j)
		}
	}
	c.mu.Unlock()
	sort.Slice(victims, func(i, k int) bool { return victims[i].fabricID < victims[k].fabricID })
	for _, j := range victims {
		c.stealJob(j)
	}
}

// stealJob places one orphaned job with the current ring owner of its
// digest, walking further successors if they die too. Exhausting every
// option marks the job failed — and bumps the steal-failure counter that
// colload -fabric treats as lost work.
func (c *Coordinator) stealJob(j *routedJob) {
	defer func() {
		j.mu.Lock()
		j.stealing = false
		j.mu.Unlock()
	}()
	j.mu.Lock()
	sub, terminal := j.submission, j.terminal
	j.mu.Unlock()
	if terminal || sub.body == nil {
		return
	}
	for attempt := 0; attempt < 16; attempt++ {
		select {
		case <-c.stopc:
			return
		default:
		}
		p := c.place(sub)
		switch p.outcome {
		case placeNoWorker:
			// No live workers right now. An empty ring is often transient —
			// a GC-stalled worker's next heartbeat re-registers it — so wait
			// out part of the grace window instead of orphaning the job.
			c.pause(c.cfg.PeerTTL / 2)
		case placeUnreachable:
			// The owner is expired now; the next attempt asks its successor.
		case placeAccepted, placeCached:
			j.mu.Lock()
			j.node, j.workerID, j.stolen = p.owner, p.info.ID, true
			j.mu.Unlock()
			if p.outcome == placeCached {
				// The successor's result cache already held the digest: the
				// steal is instantly terminal.
				c.adopt(j, p.owner, p.info.ID, &p.info)
			}
			c.steals.Add(1)
			c.cfg.Logf("fabric: job %s stolen to %s as %s", j.fabricID, p.owner, p.info.ID)
			return
		case placeShed:
			// Successor overloaded or draining: honor Retry-After, bounded.
			// The hint is in whole seconds, so any hint waits the 1s cap.
			delay := 100 * time.Millisecond
			if ra, err := strconv.Atoi(p.resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				delay = time.Second
			}
			c.pause(delay)
		case placeUndecodable:
			c.failJob(j, "steal resubmission returned an undecodable 202")
			return
		default:
			c.failJob(j, fmt.Sprintf("steal resubmission rejected: HTTP %d: %s", p.resp.StatusCode, p.payload))
			return
		}
	}
	c.failJob(j, "no live worker could take the stolen job")
}

// pause waits d, or less if the coordinator is closing.
func (c *Coordinator) pause(d time.Duration) {
	select {
	case <-c.stopc:
	case <-time.After(d):
	}
}

// failJob ends a job no live worker could take: a steal failure.
func (c *Coordinator) failJob(j *routedJob, msg string) {
	c.stealFailures.Add(1)
	j.mu.Lock()
	j.terminal = true
	j.failMsg = msg
	j.body = nil
	j.mu.Unlock()
	c.cfg.Logf("fabric: job %s lost: %s", j.fabricID, msg)
}

// --- the forward path ----------------------------------------------------------

// hop is one request from the coordinator to a worker.
type hop struct {
	method, path, query string
	contentType         string
	ifNoneMatch         string
	body                []byte
	// stream, when set, makes the call an open-ended relay bounded by this
	// (subscriber's) context instead of forwardTimeout; a 200 answer's
	// body is then left open for the caller to copy and close.
	stream context.Context
}

// errNoLease answers a call to a worker whose lease has expired (or that
// never joined): the coordinator does not dial it.
var errNoLease = errors.New("fabric: no live worker")

// call is the coordinator's one hop to a worker: the only place a worker
// request is built, a worker's answer is read, and a failed dial is
// counted. A transport error expires the worker on the spot — the proxy
// path is the failure detector's fastest edge — unless a streaming call's
// own subscriber went away first. The answer is read under
// MaxBodyBytes and closed, except a streaming call's 200.
func (c *Coordinator) call(node string, h hop) (*http.Response, []byte, error) {
	view, known := c.reg.Get(node)
	if !known || !view.Alive {
		return nil, nil, errNoLease
	}
	ctx := h.stream
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), forwardTimeout)
		defer cancel()
	}
	url := view.BaseURL + h.path
	if h.query != "" {
		url += "?" + h.query
	}
	var body io.Reader
	if h.body != nil {
		body = bytes.NewReader(h.body)
	}
	var resp *http.Response
	req, err := http.NewRequestWithContext(ctx, h.method, url, body)
	if err == nil {
		if h.contentType != "" {
			req.Header.Set("Content-Type", h.contentType)
		}
		if h.ifNoneMatch != "" {
			req.Header.Set("If-None-Match", h.ifNoneMatch)
		}
		resp, err = c.client.Do(req)
	}
	if err != nil {
		if h.stream != nil && h.stream.Err() != nil {
			return nil, nil, err // the subscriber hung up, not the worker
		}
		c.forwardErrors.Add(1)
		c.workerDown(node, fmt.Sprintf("%s %s: %v", h.method, h.path, err))
		return nil, nil, err
	}
	if h.stream != nil && resp.StatusCode == http.StatusOK {
		return resp, nil, nil
	}
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	resp.Body.Close()
	return resp, payload, nil
}

// relay writes a worker's answer back to the client verbatim: status,
// body and the headers a client acts on.
func relay(w http.ResponseWriter, resp *http.Response, payload []byte) {
	for _, h := range []string{"Retry-After", "Cache-Control", "ETag"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(resp.StatusCode)
	w.Write(payload)
}

// writeUnreachable answers a relay whose worker call failed: 404 when the
// job has no live assignment, 502 when the dial itself failed.
func writeUnreachable(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, errNoLease) {
		writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no live assignment for job %q", id)})
		return
	}
	writeJSON(w, http.StatusBadGateway, colcache.APIError{Error: "worker unreachable: " + err.Error()})
}

// adopt stamps a worker's document for j's assignment (node, workerID)
// with the fabric's view: the fabric ID, the node, whether the job was
// stolen, and its digest. A terminal answer for the still-current
// assignment retires the route — the body is dropped and the document
// kept, so later polls are answered locally (the worker may be gone by
// then). A steal may have re-placed the job meanwhile; only the current
// assignment's terminal answer counts.
func (c *Coordinator) adopt(j *routedJob, node, workerID string, info *colcache.JobInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	info.ID, info.Node, info.Recovered = j.fabricID, node, j.stolen
	if info.Digest == "" {
		info.Digest = j.digest
	}
	switch info.State {
	case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
		if j.node == node && j.workerID == workerID && !j.terminal {
			j.terminal, j.body = true, nil
			doc := *info
			j.cached = &doc
		}
	}
}

// placement is the outcome of one attempt to place a submission.
type placement struct {
	outcome placeOutcome
	owner   string
	info    colcache.JobInfo // accepted: the worker's job; cached: the terminal document
	resp    *http.Response   // the worker's answer, when one arrived
	payload []byte
}

type placeOutcome int

const (
	placeNoWorker    placeOutcome = iota // no live worker owns the digest
	placeUnreachable                     // the owner's dial failed; it is expired now
	placeAccepted                        // 202 naming the worker's job
	placeUndecodable                     // 202 without a job document
	placeCached                          // 200 with a cached terminal document
	placeShed                            // 429 or 503: retry after Retry-After
	placeRejected                        // any other answer
)

// place is the one placement step of submit and steal: pick the digest's
// live ring owner, POST the retained submission to it, and classify the
// answer. Accepted and cached answers are counted and stamped with the
// owner and digest; what a shed or rejection means is the caller's call.
func (c *Coordinator) place(sub submission) placement {
	owner, ok := c.pickOwner(sub.digest)
	if !ok {
		return placement{outcome: placeNoWorker}
	}
	p := placement{owner: owner}
	var err error
	p.resp, p.payload, err = c.call(owner, hop{
		method: http.MethodPost, path: sub.path, query: sub.rawQuery,
		contentType: sub.contentType, body: sub.body,
	})
	if err != nil {
		p.outcome = placeUnreachable
		return p
	}
	switch p.resp.StatusCode {
	case http.StatusAccepted:
		p.outcome = placeUndecodable
		if json.Unmarshal(p.payload, &p.info) == nil && p.info.ID != "" {
			p.outcome = placeAccepted
			c.countRouted(owner)
		}
	case http.StatusOK:
		p.outcome = placeRejected
		if json.Unmarshal(p.payload, &p.info) == nil && p.info.Cached {
			p.outcome = placeCached
			c.cachedRelays.Add(1)
		}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		p.outcome = placeShed
	default:
		p.outcome = placeRejected
	}
	p.info.Node = owner
	if p.info.Digest == "" {
		p.info.Digest = sub.digest
	}
	return p
}

// pickOwner resolves the digest's ring owner to a live worker, pruning
// members the registry no longer believes in.
func (c *Coordinator) pickOwner(digest string) (string, bool) {
	for i := 0; i < 8; i++ {
		owner, ok := c.ring.Owner(digest)
		if !ok {
			return "", false
		}
		if view, known := c.reg.Get(owner); known && view.Alive {
			return owner, true
		}
		c.ring.Remove(owner)
	}
	return "", false
}

func (c *Coordinator) countRouted(node string) {
	c.routed.Add(1)
	c.mu.Lock()
	c.byNode[node]++
	c.mu.Unlock()
}

// --- control-plane handlers --------------------------------------------------

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&hb); err != nil {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: "bad heartbeat: " + err.Error()})
		return
	}
	if hb.Name == "" || hb.BaseURL == "" {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: "heartbeat needs name and base_url"})
		return
	}
	if c.reg.Upsert(hb, time.Now()) {
		c.ring.Add(hb.Name)
		c.cfg.Logf("fabric: worker %s joined at %s (%d alive)", hb.Name, hb.BaseURL, c.reg.Alive())
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers": c.reg.Alive()})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.clusterView())
}

func (c *Coordinator) clusterView() ClusterView {
	pending := 0
	c.mu.Lock()
	for _, j := range c.jobs {
		j.mu.Lock()
		if !j.terminal {
			pending++
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	return ClusterView{
		VNodes:        c.ring.VNodes(),
		Workers:       c.reg.Snapshot(time.Now()),
		PendingJobs:   pending,
		JobsRouted:    c.routed.Load(),
		JobsStolen:    c.steals.Load(),
		StealFailures: c.stealFailures.Load(),
		ForwardErrors: c.forwardErrors.Load(),
		CachedRelays:  c.cachedRelays.Load(),
	}
}

func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	succ := c.ring.Successors(digest, 3)
	if len(succ) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, colcache.APIError{Error: "no workers joined"})
		return
	}
	writeJSON(w, http.StatusOK, RouteView{Digest: digest, Node: succ[0], Successors: succ[1:]})
}

// --- data-plane proxy --------------------------------------------------------

// digestOf computes the same content address the worker's durability
// layer would, from the submission as the coordinator sees it — routing
// and memoization must agree on the key or warm caches are useless.
func digestOf(path string, r *http.Request, body []byte) (digest, kind string, err error) {
	if path == "/v1/sweep" {
		var spec colcache.SweepSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return "", "", fmt.Errorf("bad JSON: %v", err)
		}
		return service.SweepDigest(spec), "sweep", nil
	}
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		spec, err := service.MachineFromQuery(r)
		if err != nil {
			return "", "", fmt.Errorf("bad query: %v", err)
		}
		return service.SimDigest(spec, body), "simulate", nil
	}
	var spec colcache.SimSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return "", "", fmt.Errorf("bad JSON: %v", err)
	}
	kind = "simulate"
	if spec.Multicore != nil {
		kind = "multicore"
	}
	return service.SimDigest(spec, nil), kind, nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, colcache.APIError{Error: "request body too large"})
		} else {
			writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: "unreadable body: " + err.Error()})
		}
		return
	}
	sub := submission{path: "/v1/simulate", rawQuery: r.URL.RawQuery, contentType: r.Header.Get("Content-Type"), body: body}
	if r.URL.Path == "/v1/sweep" {
		sub.path = "/v1/sweep"
	}
	if sub.digest, sub.kind, err = digestOf(sub.path, r, body); err != nil {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: err.Error()})
		return
	}

	// Place with the digest's owner; a connection error expires the owner
	// on the spot and retries the next one — the submission itself is the
	// failure detector's fastest path.
	for attempt := 0; attempt < 8; attempt++ {
		p := c.place(sub)
		switch p.outcome {
		case placeNoWorker:
			writeShed(w, http.StatusServiceUnavailable, 1, "no live workers in the fabric")
		case placeUnreachable:
			continue
		case placeAccepted:
			j := c.registerJob(sub, p.owner, p.info.ID)
			p.info.ID = j.fabricID
			w.Header().Set("Location", "/v1/jobs/"+j.fabricID)
			writeJSON(w, http.StatusAccepted, p.info)
		case placeUndecodable:
			writeJSON(w, http.StatusBadGateway, colcache.APIError{Error: "worker returned an undecodable 202"})
		case placeCached:
			// Warm result cache on the owner: relay the terminal document.
			writeJSON(w, http.StatusOK, p.info)
		default:
			// Backpressure and validation answers relay verbatim — the
			// client's retry contract is the same as against one daemon.
			relay(w, p.resp, p.payload)
		}
		return
	}
	writeShed(w, http.StatusServiceUnavailable, 1, "no worker accepted the submission")
}

// registerJob records a placed submission under a fresh fabric ID.
func (c *Coordinator) registerJob(sub submission, node, workerID string) *routedJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j := &routedJob{
		fabricID:   fmt.Sprintf("f%08d", c.seq),
		accepted:   time.Now(),
		submission: sub,
		node:       node,
		workerID:   workerID,
	}
	c.jobs[j.fabricID] = j
	c.order = append(c.order, j.fabricID)
	c.evictLocked()
	return j
}

// evictLocked drops the oldest terminal routes beyond the retention cap.
func (c *Coordinator) evictLocked() {
	if len(c.jobs) <= c.cfg.RetainJobs {
		return
	}
	excess := len(c.jobs) - c.cfg.RetainJobs
	kept := c.order[:0]
	for _, id := range c.order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		if excess > 0 {
			j.mu.Lock()
			terminal := j.terminal
			j.mu.Unlock()
			if terminal {
				delete(c.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	c.order = kept
}

// job looks up a route by fabric ID (nil when unknown).
func (c *Coordinator) job(id string) *routedJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// assignment is the job's current placement: the node and the worker's
// job ID. A nil (unknown) job has none, and no live worker is named "".
func (j *routedJob) assignment() (node, workerID string) {
	if j == nil {
		return "", ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node, j.workerID
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := c.job(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no such job %q", id)})
		return
	}
	j.mu.Lock()
	cached, workerID := j.cached, j.workerID
	doc := colcache.JobInfo{
		ID: id, Kind: j.kind, State: colcache.StateQueued, Digest: j.digest,
		Node: j.node, Recovered: j.stolen, Error: j.failMsg, SubmittedAt: j.accepted,
	}
	j.mu.Unlock()
	if cached != nil {
		writeJSON(w, http.StatusOK, *cached)
		return
	}
	if doc.Error != "" {
		doc.State = colcache.StateFailed
		writeJSON(w, http.StatusOK, doc)
		return
	}
	info, status := c.refresh(j, doc.Node, workerID)
	if info != nil {
		writeJSON(w, http.StatusOK, *info)
		return
	}
	if status == http.StatusNotFound {
		c.replaceLost(j, workerID)
	}
	// The assignment is unreachable (worker just died, or its store
	// evicted the job). The route survives: answer queued so the client
	// keeps polling while the steal loop re-places the job.
	writeJSON(w, http.StatusOK, doc)
}

// handleInspectStream relays a live SSE inspection stream from the job's
// owning worker, flushing per read so frame latency survives the hop. The
// relay follows the assignment at attach time: if the worker dies
// mid-stream the relay ends with it, and the client reattaches after the
// steal loop re-places the job.
func (c *Coordinator) handleInspectStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusInternalServerError, colcache.APIError{Error: "relay writer cannot stream"})
		return
	}
	node, workerID := c.job(id).assignment()
	resp, payload, err := c.call(node, hop{method: http.MethodGet, path: "/v1/jobs/" + workerID + "/inspect", stream: r.Context()})
	if err != nil {
		writeUnreachable(w, id, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		relay(w, resp, payload)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleInspectFrames relays the time-travel frame range from the job's
// owning worker, rewriting the document's job field to the fabric ID.
func (c *Coordinator) handleInspectFrames(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, workerID := c.job(id).assignment()
	resp, payload, err := c.call(node, hop{method: http.MethodGet, path: "/v1/jobs/" + workerID + "/inspect/frames", query: r.URL.RawQuery})
	if err != nil {
		writeUnreachable(w, id, err)
		return
	}
	var doc colcache.InspectFrames
	if resp.StatusCode == http.StatusOK && json.Unmarshal(payload, &doc) == nil {
		doc.Job = id
		writeJSON(w, http.StatusOK, doc)
		return
	}
	relay(w, resp, payload)
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	queued, running := 0, 0
	for _, v := range c.reg.Snapshot(time.Now()) {
		if v.Alive {
			queued += v.Queued
			running += v.Running
		}
	}
	writeJSON(w, http.StatusOK, colcache.JobList{Queued: queued, Running: running})
}

// handleResult routes a digest read to its ring owner, falling back to
// successors: after membership churn the blob may still live on a prior
// owner. Workers answer with Cache-Control: immutable + an ETag, and the
// relay preserves both, so fabric reads are HTTP-cacheable end to end.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	h := hop{method: http.MethodGet, path: "/v1/results/" + digest, ifNoneMatch: r.Header.Get("If-None-Match")}
	for _, node := range c.ring.Successors(digest, 3) {
		resp, payload, err := c.call(node, h)
		if err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified) {
			relay(w, resp, payload)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no result for digest %q on any live worker", digest)})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "coordinator", "workers": c.reg.Alive()})
}

// handleMetrics renders the fabric gauges in Prometheus text exposition,
// including the per-node job ledgers carried by heartbeats — one scrape
// of the coordinator reconciles the whole fleet's books.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	view := c.clusterView()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	alive := 0
	for _, n := range view.Workers {
		if n.Alive {
			alive++
		}
	}
	fmt.Fprintf(w, "# HELP colserved_fabric_workers_alive Live workers on the ring.\n# TYPE colserved_fabric_workers_alive gauge\ncolserved_fabric_workers_alive %d\n", alive)
	fmt.Fprintf(w, "# HELP colserved_fabric_workers_known Workers ever registered (alive and dead).\n# TYPE colserved_fabric_workers_known gauge\ncolserved_fabric_workers_known %d\n", len(view.Workers))
	fmt.Fprintf(w, "# HELP colserved_fabric_ring_vnodes Virtual nodes per worker.\n# TYPE colserved_fabric_ring_vnodes gauge\ncolserved_fabric_ring_vnodes %d\n", view.VNodes)
	fmt.Fprintf(w, "# HELP colserved_fabric_pending_jobs Routed jobs not yet terminal.\n# TYPE colserved_fabric_pending_jobs gauge\ncolserved_fabric_pending_jobs %d\n", view.PendingJobs)
	fmt.Fprintf(w, "# HELP colserved_fabric_jobs_routed_total Submissions forwarded to workers.\n# TYPE colserved_fabric_jobs_routed_total counter\ncolserved_fabric_jobs_routed_total %d\n", view.JobsRouted)
	fmt.Fprintf(w, "# HELP colserved_fabric_jobs_stolen_total Jobs re-routed off dead workers.\n# TYPE colserved_fabric_jobs_stolen_total counter\ncolserved_fabric_jobs_stolen_total %d\n", view.JobsStolen)
	fmt.Fprintf(w, "# HELP colserved_fabric_steal_failures_total Orphaned jobs no live worker could take.\n# TYPE colserved_fabric_steal_failures_total counter\ncolserved_fabric_steal_failures_total %d\n", view.StealFailures)
	fmt.Fprintf(w, "# HELP colserved_fabric_forward_errors_total Proxied requests that hit a dead worker.\n# TYPE colserved_fabric_forward_errors_total counter\ncolserved_fabric_forward_errors_total %d\n", view.ForwardErrors)
	fmt.Fprintf(w, "# HELP colserved_fabric_cached_relays_total Submissions answered from a worker's warm result cache.\n# TYPE colserved_fabric_cached_relays_total counter\ncolserved_fabric_cached_relays_total %d\n", view.CachedRelays)

	c.mu.Lock()
	nodes := make([]string, 0, len(c.byNode))
	for n := range c.byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(w, "# HELP colserved_fabric_node_routed_total Submissions routed per worker.\n# TYPE colserved_fabric_node_routed_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "colserved_fabric_node_routed_total{node=%q} %d\n", n, c.byNode[n])
	}
	c.mu.Unlock()

	fmt.Fprintf(w, "# HELP colserved_fabric_node_jobs Per-node job ledger from the last heartbeat.\n# TYPE colserved_fabric_node_jobs gauge\n")
	for _, n := range view.Workers {
		outcomes := make([]string, 0, len(n.Ledger))
		for o := range n.Ledger {
			outcomes = append(outcomes, o)
		}
		sort.Strings(outcomes)
		for _, o := range outcomes {
			fmt.Fprintf(w, "colserved_fabric_node_jobs{node=%q,outcome=%q} %d\n", n.Name, o, n.Ledger[o])
		}
	}
	fmt.Fprintf(w, "# HELP colserved_fabric_uptime_seconds Seconds since the coordinator started.\n# TYPE colserved_fabric_uptime_seconds gauge\ncolserved_fabric_uptime_seconds %g\n", time.Since(c.start).Seconds())
}

// --- small shared helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeShed(w http.ResponseWriter, code, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, colcache.APIError{Error: msg, RetryAfterSeconds: retryAfter})
}
