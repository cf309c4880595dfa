package fabric

import (
	"sort"
	"sync"
	"time"
)

// Heartbeat is the worker → coordinator report: POST /fabric/v1/heartbeat.
// The first heartbeat from a name IS the registration; later ones renew
// the lease and refresh the worker's self-reported load and job ledger.
type Heartbeat struct {
	// Name identifies the worker on the ring; it must stay stable across
	// that worker's restarts so its keyspace share survives.
	Name string `json:"name"`
	// BaseURL is where the coordinator reaches the worker's /v1 API.
	BaseURL string `json:"base_url"`
	// Ledger is the worker's job outcomes by outcome label (accepted,
	// done, failed, canceled, cached, recovered, rejected), summed over
	// job kinds — the coordinator reconciles these books per node.
	Ledger map[string]int64 `json:"ledger,omitempty"`
	// Queued and Running are the worker's live queue gauges.
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// NodeView is one worker as the coordinator sees it, served by
// GET /fabric/v1/nodes.
type NodeView struct {
	Name       string           `json:"name"`
	BaseURL    string           `json:"base_url"`
	Alive      bool             `json:"alive"`
	LastBeatMs int64            `json:"last_beat_ms"` // age of the last heartbeat
	Beats      int64            `json:"beats"`
	Queued     int              `json:"queued"`
	Running    int              `json:"running"`
	Ledger     map[string]int64 `json:"ledger,omitempty"`
}

// worker is the registry's mutable record for one member.
type worker struct {
	Heartbeat
	lastBeat time.Time
	beats    int64
	alive    bool
}

// Registry is the membership table: heartbeats renew leases, Sweep
// expires them. It is deliberately separate from the Ring so the failure
// detector can be tested without HTTP, and so the coordinator decides
// what a membership change means (ring update + job stealing).
type Registry struct {
	ttl time.Duration

	mu      sync.Mutex
	workers map[string]*worker
}

// NewRegistry builds a registry whose leases expire ttl after the last
// heartbeat (<= 0 means 2s).
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	return &Registry{ttl: ttl, workers: make(map[string]*worker)}
}

// TTL is the lease duration.
func (g *Registry) TTL() time.Duration { return g.ttl }

// Upsert applies a heartbeat and reports whether the worker is newly
// alive (first contact, or a comeback after the failure detector expired
// it) — the coordinator adds it to the ring exactly then.
func (g *Registry) Upsert(hb Heartbeat, now time.Time) (newlyAlive bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[hb.Name]
	if !ok {
		w = &worker{}
		g.workers[hb.Name] = w
	}
	newlyAlive = !ok || !w.alive
	w.Heartbeat = hb
	w.lastBeat = now
	w.beats++
	w.alive = true
	return newlyAlive
}

// MarkDead expires a worker immediately (the coordinator calls this when
// a forward hits a connection error — faster than waiting out the lease).
// Reports whether the worker was alive.
func (g *Registry) MarkDead(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[name]
	if !ok || !w.alive {
		return false
	}
	w.alive = false
	return true
}

// Sweep expires every lease older than TTL and returns the names that
// just died, sorted for determinism.
func (g *Registry) Sweep(now time.Time) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var dead []string
	for name, w := range g.workers {
		if w.alive && now.Sub(w.lastBeat) > g.ttl {
			w.alive = false
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead
}

// Get returns the current view of one worker. The bool reports whether
// the name is known at all — alive or expired; callers that would dial
// the worker must also check NodeView.Alive.
func (g *Registry) Get(name string) (NodeView, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[name]
	if !ok {
		return NodeView{}, false
	}
	return g.viewLocked(name, w, time.Now()), true
}

// Alive counts live workers.
func (g *Registry) Alive() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, w := range g.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// Snapshot returns every known worker (alive and dead), sorted by name.
func (g *Registry) Snapshot(now time.Time) []NodeView {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]NodeView, 0, len(g.workers))
	for name, w := range g.workers {
		out = append(out, g.viewLocked(name, w, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (g *Registry) viewLocked(name string, w *worker, now time.Time) NodeView {
	ledger := make(map[string]int64, len(w.Ledger))
	for k, v := range w.Ledger {
		ledger[k] = v
	}
	return NodeView{
		Name:       name,
		BaseURL:    w.BaseURL,
		Alive:      w.alive,
		LastBeatMs: now.Sub(w.lastBeat).Milliseconds(),
		Beats:      w.beats,
		Queued:     w.Queued,
		Running:    w.Running,
		Ledger:     ledger,
	}
}
