// Package memo is the cross-job memoization layer of the campaign engine:
// a concurrency-safe, sharded, content-addressed solver-verdict cache
// shared by every job it is handed to. WASAI's concolic loop re-solves
// near-identical flipped-branch constraints many times — within one job
// every coverage increase resets the attempted set, and across jobs
// template-generated contracts repeat whole constraint families. The
// paper (§3.4.4) parallelizes constraint solving because it dominates
// end-to-end cost; this layer removes the duplicated fraction of that
// cost outright.
//
// The deployment decides the scope, not an option: a long-lived daemon
// hands one cache to every job it runs, a facade campaign with a disk
// store builds one for that campaign, and every other run has none (a nil
// *Cache is memoization-off).
//
// Two tiers, both keyed by 32-byte content hashes:
//
//   - solver: canonicalized query -> Sat/Unsat verdict (+ canonical model),
//     consulted by symbolic.SolvePoolCtx before DPLL. Exact (Ordered-key)
//     hits replay verdict and model; permutation (Sorted-key) hits serve
//     Unsat only. See internal/symbolic/canon.go for why this preserves
//     byte-identical campaign digests.
//   - disk (optional, see AttachDisk): the durable store under the solver
//     tier, shared across processes and restarts.
//
// Determinism contract: with or without a cache, at any worker count,
// campaign FindingsDigest and StateDigest are byte-identical. The cache
// can change only how much work is done, never its outcome: verdicts are
// semantic properties of the canonical query, Unknown is never cached,
// and fault-injected attempts bypass the cache entirely (enforced in
// symbolic.SolvePoolCtx and internal/campaign). Hit/miss/eviction
// counters are the one explicitly nondeterministic surface: concurrent
// workers can miss on the same key simultaneously, so counts may vary by
// ±worker-count across runs. They feed reports only, never digests.
//
// Eviction is per-shard FIFO with a fixed capacity: the oldest entry in
// the shard is dropped when a new key arrives at a full shard. Evicting
// never changes results — a dropped entry only means the work is done
// again on the next encounter.
package memo

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/symbolic"
)

// Stats are cumulative cache counters. Counters are reporting-only: they
// never influence analysis results (see the package comment for why hit
// counts are not perfectly worker-count invariant).
type Stats struct {
	SolverHits      int64 // Ordered-key verdict replays
	SolverUnsatHits int64 // Sorted-key Unsat replays
	SolverMisses    int64
	SolverEvictions int64
	// Disk-tier counters (zero unless a store is attached). StoreHits
	// counts lookups the memory tier missed but the disk store answered;
	// StoreMisses and StoreCorrupt mirror the attached store's own
	// counters (corrupt reads degrade to misses, never to answers).
	StoreHits    int64
	StoreMisses  int64
	StoreCorrupt int64
}

// Sub returns s - prev, the delta between two snapshots (per-campaign
// accounting against a shared cache).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		SolverHits:      s.SolverHits - prev.SolverHits,
		SolverUnsatHits: s.SolverUnsatHits - prev.SolverUnsatHits,
		SolverMisses:    s.SolverMisses - prev.SolverMisses,
		SolverEvictions: s.SolverEvictions - prev.SolverEvictions,
		StoreHits:       s.StoreHits - prev.StoreHits,
		StoreMisses:     s.StoreMisses - prev.StoreMisses,
		StoreCorrupt:    s.StoreCorrupt - prev.StoreCorrupt,
	}
}

// Hits sums hit counters across tiers (disk-store hits included: they
// saved the same recomputation a memory hit would have).
func (s Stats) Hits() int64 {
	return s.SolverHits + s.SolverUnsatHits + s.StoreHits
}

// Misses counts lookups no tier answered.
func (s Stats) Misses() int64 {
	return s.SolverMisses
}

// HitRate is Hits / (Hits + Misses), 0 when the cache was never consulted.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// String renders the counters in the campaign-report style. The disk
// tier is appended only when it saw traffic, so store-less runs render
// exactly as before.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"solver hits=%d (unsat-perm %d) misses=%d evictions=%d | hit rate %.1f%%",
		s.SolverHits+s.SolverUnsatHits, s.SolverUnsatHits, s.SolverMisses, s.SolverEvictions,
		100*s.HitRate())
	if s.StoreHits != 0 || s.StoreMisses != 0 || s.StoreCorrupt != 0 {
		out += fmt.Sprintf(" | disk hits=%d misses=%d corrupt=%d", s.StoreHits, s.StoreMisses, s.StoreCorrupt)
	}
	return out
}

// DefaultShardCap bounds each of the 16 shards of each memory tier; the
// per-tier capacity is 16 × DefaultShardCap entries.
const DefaultShardCap = 4096

// Cache is the solver-verdict memoization store. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and nil-safe (a nil *Cache behaves as memoization-off), so call sites
// need no guards.
type Cache struct {
	solver sharded[symbolic.SolverVerdict] // Ordered key -> verdict
	unsat  sharded[struct{}]               // Sorted key -> (Unsat)

	// disk is the optional durable tier (see AttachDisk): a durable,
	// cross-process store consulted after a memory miss on the solver and
	// unsat tiers, and written through on Store.
	disk atomic.Pointer[store.Store]

	solverHits      atomic.Int64
	solverUnsatHits atomic.Int64
	solverMisses    atomic.Int64
	storeHits       atomic.Int64
}

// New returns an empty cache with default capacities.
func New() *Cache {
	c := &Cache{}
	c.solver.init(DefaultShardCap)
	c.unsat.init(DefaultShardCap)
	return c
}

// Disk-tier names inside the attached store: solver verdicts are small,
// binary-stable (see encodeVerdict) and are what dominates recomputation
// cost.
const (
	diskTierSolver = "solver" // Ordered key -> encodeVerdict payload
	diskTierUnsat  = "unsat"  // Sorted key -> empty payload (Unsat marker)
)

// AttachDisk plugs a durable store under the solver tiers: memory misses
// consult it, and Sat/Unsat verdicts are written through so other
// processes (and future runs) start warm. Attaching nil detaches.
// Safe to call concurrently with lookups; pass the same *store.Store
// (e.g. store.OpenShared) to every cache sharing a directory.
func (c *Cache) AttachDisk(d *store.Store) {
	if c == nil {
		return
	}
	c.disk.Store(d)
}

// Disk returns the attached store, if any.
func (c *Cache) Disk() *store.Store {
	if c == nil {
		return nil
	}
	return c.disk.Load()
}

// SolverMemo adapts c to the solver pool's cache interface, returning a
// nil interface (not a typed-nil) when c is nil so the pool's nil check
// stays meaningful.
func (c *Cache) SolverMemo() symbolic.SolverMemo {
	if c == nil {
		return nil
	}
	return c
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	var ds store.Stats
	if d := c.disk.Load(); d != nil {
		ds = d.Stats()
	}
	return Stats{
		StoreHits:       c.storeHits.Load(),
		StoreMisses:     ds.Misses,
		StoreCorrupt:    ds.Corrupt,
		SolverHits:      c.solverHits.Load(),
		SolverUnsatHits: c.solverUnsatHits.Load(),
		SolverMisses:    c.solverMisses.Load(),
		SolverEvictions: c.solver.evictions.Load() + c.unsat.evictions.Load(),
	}
}

// --- solver tier (implements symbolic.SolverMemo) ---------------------------

// Lookup serves a memoized verdict: exact (Ordered-key) hits replay
// verdict and model; Sorted-key hits replay Unsat only.
func (c *Cache) Lookup(q symbolic.Canon) (symbolic.SolverVerdict, bool) {
	if c == nil {
		return symbolic.SolverVerdict{}, false
	}
	if v, ok := c.solver.get(q.Ordered); ok {
		c.solverHits.Add(1)
		return v, true
	}
	if _, ok := c.unsat.get(q.Sorted); ok {
		c.solverUnsatHits.Add(1)
		return symbolic.SolverVerdict{Result: symbolic.Unsat}, true
	}
	if d := c.disk.Load(); d != nil {
		if raw, ok := d.Get(diskTierSolver, q.Ordered); ok {
			if v, ok := decodeVerdict(raw); ok {
				// Promote into the memory tiers so the next lookup skips disk.
				c.solver.put(q.Ordered, v)
				if v.Result == symbolic.Unsat {
					c.unsat.put(q.Sorted, struct{}{})
				}
				c.storeHits.Add(1)
				return v, true
			}
			// CRC-valid but semantically undecodable payload (foreign
			// writer): fall through to a plain miss; never guess a verdict.
		}
		if _, ok := d.Get(diskTierUnsat, q.Sorted); ok {
			c.unsat.put(q.Sorted, struct{}{})
			c.storeHits.Add(1)
			return symbolic.SolverVerdict{Result: symbolic.Unsat}, true
		}
	}
	c.solverMisses.Add(1)
	return symbolic.SolverVerdict{}, false
}

// Store records a Sat or Unsat verdict; Unknown is dropped (it reflects
// the budget and cancellation timing, not the query).
func (c *Cache) Store(q symbolic.Canon, v symbolic.SolverVerdict) {
	if c == nil {
		return
	}
	d := c.disk.Load()
	switch v.Result {
	case symbolic.Sat:
		c.solver.put(q.Ordered, v)
		d.Put(diskTierSolver, q.Ordered, encodeVerdict(v))
	case symbolic.Unsat:
		c.solver.put(q.Ordered, v)
		c.unsat.put(q.Sorted, struct{}{})
		d.Put(diskTierSolver, q.Ordered, encodeVerdict(v))
		d.Put(diskTierUnsat, q.Sorted, nil)
	}
}

// encodeVerdict frames a solver verdict for the disk tier: one result
// byte, then each model value as 8 little-endian bytes. Binary, not
// JSON: model values are full-range uint64s and must round-trip exactly
// (digest identity) — JSON numbers would lose precision past 2^53.
func encodeVerdict(v symbolic.SolverVerdict) []byte {
	out := make([]byte, 1+8*len(v.Vals))
	out[0] = byte(v.Result)
	for i, val := range v.Vals {
		binary.LittleEndian.PutUint64(out[1+8*i:], val)
	}
	return out
}

// decodeVerdict is the inverse; it rejects shapes encodeVerdict cannot
// produce (Unknown results, ragged lengths) so a foreign or stale
// payload degrades to a miss.
func decodeVerdict(raw []byte) (symbolic.SolverVerdict, bool) {
	if len(raw) < 1 || (len(raw)-1)%8 != 0 {
		return symbolic.SolverVerdict{}, false
	}
	res := symbolic.Result(raw[0])
	if res != symbolic.Sat && res != symbolic.Unsat {
		return symbolic.SolverVerdict{}, false
	}
	v := symbolic.SolverVerdict{Result: res}
	if n := (len(raw) - 1) / 8; n > 0 {
		v.Vals = make([]uint64, n)
		for i := range v.Vals {
			v.Vals[i] = binary.LittleEndian.Uint64(raw[1+8*i:])
		}
	}
	return v, true
}

// --- sharded store ----------------------------------------------------------

const numShards = 16

// sharded is a 16-way sharded map keyed by 32-byte content hashes with
// per-shard FIFO eviction. Sharding keeps lock hold times short under
// the solver pool's concurrency; the shard index is the key's first
// byte's low nibble (uniform, since keys are SHA-256 output).
type sharded[V any] struct {
	shards    [numShards]shard[V]
	capacity  int
	evictions atomic.Int64
}

type shard[V any] struct {
	mu sync.Mutex
	//wasai:localcache shard storage of internal/memo itself
	m     map[[32]byte]V
	order [][32]byte // insertion order; order[head:] are live
	head  int
}

func (s *sharded[V]) init(capPerShard int) {
	s.capacity = capPerShard
	for i := range s.shards {
		s.shards[i].m = map[[32]byte]V{}
	}
}

func (s *sharded[V]) get(key [32]byte) (V, bool) {
	sh := &s.shards[key[0]&(numShards-1)]
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

func (s *sharded[V]) put(key [32]byte, v V) {
	sh := &s.shards[key[0]&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		// Refresh in place, keeping the FIFO position: concurrent misses
		// on one key store equivalent values, so first-in wins is fine.
		sh.m[key] = v
		return
	}
	if len(sh.m) >= s.capacity {
		delete(sh.m, sh.order[sh.head])
		sh.head++
		s.evictions.Add(1)
		// Compact the consumed prefix once it dominates the slice.
		if sh.head > 64 && sh.head*2 > len(sh.order) {
			sh.order = append(sh.order[:0], sh.order[sh.head:]...)
			sh.head = 0
		}
	}
	sh.m[key] = v
	sh.order = append(sh.order, key)
}
