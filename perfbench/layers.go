package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// The per-layer probes run in the traced run only. Each replays a
// workload's own access streams through one layer called directly, with a
// span around every call into the layer, so a layer's cost is measured on
// the inputs the workload gives it.

// tintRegion assigns an address range to a set of columns.
type tintRegion struct {
	base memory.Addr
	size uint64
	mask replacement.Mask
}

// probeStream is one simulated L1's access stream and its geometry.
type probeStream struct {
	trace     memtrace.Trace
	l1        cache.Config
	pageBytes int
}

// layerInput is what the probes replay: the workload's access streams, one
// per simulated L1, with the tint plan and TLB shape they ran under.
type layerInput struct {
	tlb     vm.TLBConfig
	plan    []tintRegion
	streams []probeStream
}

// layerCosts are the probe results, per event.
type layerCosts struct {
	decodeNs float64
	tlbNs    float64
	maskNs   float64
	hitNs    float64
	missNs   map[replacement.Kind]float64
}

var policies = []replacement.Kind{replacement.LRU, replacement.TreePLRU, replacement.FIFO, replacement.Random}

// probeReps is how many times each probe pass repeats; the median is kept.
const probeReps = 5

// sink keeps the compiler from discarding probe loops.
var sink uint64

// probeLayers runs every uniform probe, records the per-layer time metrics
// and returns the costs for the decomposition check.
func probeLayers(r *report, tr *tracer, in *layerInput) (layerCosts, error) {
	costs := layerCosts{missNs: make(map[replacement.Kind]float64)}
	var total int64
	for _, s := range in.streams {
		total += int64(len(s.trace))
	}
	if total == 0 {
		return costs, fmt.Errorf("layer probes: no accesses")
	}
	req := uint64(1) << 40 // probe spans get request IDs of their own

	var err error
	if costs.decodeNs, err = probeDecode(tr, req, in.streams, total); err != nil {
		return costs, err
	}
	r.set("memtrace.decode_ns", costs.decodeNs, "ns", fmt.Sprintf("per access, %d accesses decoded, median of %d passes", total, probeReps))

	if costs.tlbNs, costs.maskNs, err = probeTLB(tr, req+1, in, total); err != nil {
		return costs, err
	}
	r.set("vm.tlb_lookup_ns", costs.tlbNs, "ns", fmt.Sprintf("per lookup, %d lookups", total))
	r.set("tint.mask_ns", costs.maskNs, "ns", fmt.Sprintf("per lookup, %d lookups", total))

	for i, pol := range policies {
		hit, miss, hits, misses, err := probeCache(tr, req+2+uint64(i), in, pol)
		if err != nil {
			return costs, err
		}
		costs.missNs[pol] = miss
		r.set("cache.miss_ns."+string(pol), miss, "ns", fmt.Sprintf("per miss, %d misses of %d accesses", misses, hits+misses))
		if pol == replacement.LRU {
			costs.hitNs = hit
			r.set("cache.hit_ns", hit, "ns", fmt.Sprintf("per hit (lru), %d hits", hits))
		}
	}
	return costs, nil
}

// probeDecode encodes the streams in the binary trace format and times
// decoding them back in DecodeBatch chunks; ns per access.
func probeDecode(tr *tracer, req uint64, streams []probeStream, total int64) (float64, error) {
	var encoded [][]byte
	for _, s := range streams {
		var buf bytes.Buffer
		if err := memtrace.WriteBinary(&buf, s.trace); err != nil {
			return 0, err
		}
		encoded = append(encoded, buf.Bytes())
	}
	chunk := make([]memtrace.Access, 4096)
	var passes []float64
	for rep := 0; rep < probeReps; rep++ {
		start := time.Now()
		var n int64
		for _, enc := range encoded {
			d := memtrace.NewDecoder(bytes.NewReader(enc))
			for {
				k, err := d.DecodeBatch(chunk)
				n += int64(k)
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, err
				}
			}
		}
		end := time.Now()
		tr.add(req, 0, "memtrace.decode", start, end)
		if n != total {
			return 0, fmt.Errorf("decode probe: decoded %d of %d accesses", n, total)
		}
		passes = append(passes, float64(end.Sub(start).Nanoseconds())/float64(total))
	}
	return median(passes), nil
}

// probeTLB times vm.TLB.Lookup over every access address (a fresh TLB per
// stream, over a page table carrying the tint plan) and then the
// tint-table lookup of each resolved tint; ns per call.
func probeTLB(tr *tracer, req uint64, in *layerInput, total int64) (tlbNs, maskNs float64, err error) {
	type prepared struct {
		pt  *vm.PageTable
		tbl *tint.Table
		ids []tint.Tint
	}
	var streams []prepared
	for _, s := range in.streams {
		g, err := memory.NewGeometry(s.l1.LineBytes, s.pageBytes)
		if err != nil {
			return 0, 0, err
		}
		p := prepared{pt: vm.NewPageTable(g), tbl: tint.NewTable(s.l1.NumWays)}
		for i, reg := range in.plan {
			id := p.tbl.NewTint(fmt.Sprintf("t%d", i))
			if err := p.tbl.SetMask(id, reg.mask); err != nil {
				return 0, 0, err
			}
			p.pt.SetTintRange(reg.base, reg.size, id)
		}
		for _, a := range s.trace {
			p.ids = append(p.ids, p.pt.TintOf(a.Addr))
		}
		streams = append(streams, p)
	}
	var tlbPasses, maskPasses []float64
	for rep := 0; rep < probeReps; rep++ {
		var tlbTime, maskTime time.Duration
		for i, s := range in.streams {
			tlb, err := vm.NewTLB(in.tlb, streams[i].pt)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			var acc uint64
			for _, a := range s.trace {
				e, _ := tlb.Lookup(a.Addr)
				acc += uint64(e.Tint)
			}
			mid := time.Now()
			var m replacement.Mask
			for _, id := range streams[i].ids {
				m ^= streams[i].tbl.Mask(id)
			}
			end := time.Now()
			tr.add(req, 0, "vm.tlb_lookup", start, mid)
			tr.add(req, 0, "tint.mask", mid, end)
			tlbTime += mid.Sub(start)
			maskTime += end.Sub(mid)
			sink += acc + uint64(m)
		}
		tlbPasses = append(tlbPasses, float64(tlbTime.Nanoseconds())/float64(total))
		maskPasses = append(maskPasses, float64(maskTime.Nanoseconds())/float64(total))
	}
	return median(tlbPasses), median(maskPasses), nil
}

// maskOf resolves the column mask the tint plan gives addr (all columns
// when no region covers it).
func maskOf(plan []tintRegion, addr memory.Addr, ways int) replacement.Mask {
	for _, p := range plan {
		if addr >= p.base && addr < p.base+memory.Addr(p.size) {
			return p.mask
		}
	}
	return replacement.All(ways)
}

// probeCache replays the streams through a standalone L1 of the given
// policy, a fresh cache per stream. A first pass classifies each access as
// hit or miss; timed passes on fresh caches then time each maximal run of
// consecutive hits as one span and each miss as a span of its own, with
// the clock's own cost subtracted per span. A miss span covers a missing
// Read or Write including victim selection and fill.
func probeCache(tr *tracer, req uint64, in *layerInput, pol replacement.Kind) (hitNs, missNs float64, hits, misses int64, err error) {
	type prepared struct {
		cfg   cache.Config
		tr    memtrace.Trace
		masks []replacement.Mask
		hit   []bool
	}
	var streams []prepared
	for _, s := range in.streams {
		cfg := s.l1
		cfg.Policy = pol
		c, err := cache.New(cfg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		p := prepared{cfg: cfg, tr: s.trace, masks: make([]replacement.Mask, len(s.trace)), hit: make([]bool, len(s.trace))}
		for i, a := range s.trace {
			p.masks[i] = maskOf(in.plan, a.Addr, cfg.NumWays)
			p.hit[i] = access(c, a, p.masks[i]).Hit
			if p.hit[i] {
				hits++
			} else {
				misses++
			}
		}
		streams = append(streams, p)
	}
	overhead := clockOverhead()
	var hitPasses, missPasses []float64
	for rep := 0; rep < probeReps; rep++ {
		var hitTime, missTime time.Duration
		start := time.Now()
		for _, p := range streams {
			c, _ := cache.New(p.cfg)
			for i := 0; i < len(p.tr); {
				j := i + 1
				for j < len(p.tr) && p.hit[j] == p.hit[i] && p.hit[i] {
					j++
				}
				t0 := time.Now()
				for k := i; k < j; k++ {
					access(c, p.tr[k], p.masks[k])
				}
				d := time.Since(t0) - overhead
				if p.hit[i] {
					hitTime += d
				} else {
					missTime += d
				}
				i = j
			}
		}
		tr.add(req, 0, "cache.access."+string(pol), start, time.Now())
		hitPasses = append(hitPasses, float64(hitTime.Nanoseconds()))
		missPasses = append(missPasses, float64(missTime.Nanoseconds()))
	}
	if hits > 0 {
		hitNs = median(hitPasses) / float64(hits)
	}
	if misses > 0 {
		missNs = median(missPasses) / float64(misses)
	}
	return hitNs, missNs, hits, misses, nil
}

func access(c *cache.Cache, a memtrace.Access, m replacement.Mask) cache.Result {
	if a.Op == memtrace.Write {
		return c.Write(a.Addr, m)
	}
	return c.Read(a.Addr, m)
}

// clockOverhead is the median cost of one empty time.Now/time.Since span.
func clockOverhead() time.Duration {
	var ds []float64
	for i := 0; i < 2001; i++ {
		t0 := time.Now()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// explained is the decomposition check of a simulation job: the per-event
// layer costs times the job's event counts, as a share of the measured job
// time. The L2 is charged at the L1 probe's hit and miss costs, since it
// runs the same cache code on a larger geometry.
func explained(c layerCosts, pol replacement.Kind, decoded, accesses, l1Hits, l1Misses, l2Hits, l2Misses int64, jobNs float64) float64 {
	if jobNs <= 0 {
		return 0
	}
	modeled := c.decodeNs*float64(decoded) +
		(c.tlbNs+c.maskNs)*float64(accesses) +
		c.hitNs*float64(l1Hits+l2Hits) +
		c.missNs[pol]*float64(l1Misses+l2Misses)
	return modeled / jobNs
}

// setSimCounts records the exact counters every workload reports, for
// one job or, on the serving workloads, summed over the popular set (per
// says which). They repeat bit for bit for a given seed.
func setSimCounts(r *report, per string, accesses int64, tlb vm.TLBStats, l1, l2 cache.Stats, cycles int64) {
	r.set("vm.tlb_misses", float64(tlb.Misses), "count", per)
	r.set("vm.tlb_hit_ratio", tlb.HitRate(), "ratio", per)
	r.set("cache.l1_hits", float64(l1.Hits), "count", per)
	r.set("cache.l1_misses", float64(l1.Misses), "count", per)
	r.set("cache.l1_hit_ratio", ratio(l1.Hits, l1.Accesses), "ratio", per)
	r.set("cache.writebacks", float64(l1.Writebacks), "count", per)
	r.set("memsys.l2_accesses", float64(l2.Accesses), "count", per)
	r.set("memsys.l2_misses", float64(l2.Misses), "count", per)
	r.set("memsys.sim_cycles", float64(cycles), "count", fmt.Sprintf("%s, %d accesses", per, accesses))
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
	dst.Fills += s.Fills
}
