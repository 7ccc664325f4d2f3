package memo

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/symbolic"
)

func key(shardByte byte, n int) [32]byte {
	var k [32]byte
	k[0] = shardByte
	k[1] = byte(n)
	k[2] = byte(n >> 8)
	return k
}

func TestShardedFIFOEviction(t *testing.T) {
	var s sharded[int]
	s.init(4)
	// Five inserts into one shard (same low nibble): the first key out.
	for i := 0; i < 5; i++ {
		s.put(key(0, i), i)
	}
	if _, ok := s.get(key(0, 0)); ok {
		t.Error("oldest entry survived past capacity")
	}
	for i := 1; i < 5; i++ {
		if v, ok := s.get(key(0, i)); !ok || v != i {
			t.Errorf("entry %d missing after eviction of older key", i)
		}
	}
	if got := s.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Re-putting an existing key refreshes in place without eviction.
	s.put(key(0, 1), 100)
	if v, _ := s.get(key(0, 1)); v != 100 {
		t.Error("refresh did not update the value")
	}
	if got := s.evictions.Load(); got != 1 {
		t.Errorf("refresh evicted: evictions = %d, want 1", got)
	}
}

func TestShardedShardIndependence(t *testing.T) {
	var s sharded[int]
	s.init(1)
	// One entry per shard: no shard evicts another's key.
	for b := 0; b < numShards; b++ {
		s.put(key(byte(b), 0), b)
	}
	for b := 0; b < numShards; b++ {
		if v, ok := s.get(key(byte(b), 0)); !ok || v != b {
			t.Errorf("shard %d lost its entry", b)
		}
	}
	if got := s.evictions.Load(); got != 0 {
		t.Errorf("evictions = %d, want 0", got)
	}
}

func TestShardedCompaction(t *testing.T) {
	var s sharded[int]
	s.init(8)
	// Far more inserts than capacity on one shard: the order slice must
	// not grow without bound (compaction) and the live set stays at cap.
	for i := 0; i < 1000; i++ {
		s.put(key(3, i), i)
	}
	sh := &s.shards[3]
	if len(sh.m) != 8 {
		t.Errorf("live entries = %d, want 8", len(sh.m))
	}
	if len(sh.order)-sh.head > 8+64 {
		t.Errorf("order slice not compacted: len=%d head=%d", len(sh.order), sh.head)
	}
	// The newest 8 keys are exactly the survivors.
	for i := 992; i < 1000; i++ {
		if _, ok := s.get(key(3, i)); !ok {
			t.Errorf("newest key %d missing", i)
		}
	}
}

func TestShardedConcurrency(t *testing.T) {
	var s sharded[int]
	s.init(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.put(key(byte(i%numShards), i), i)
				s.get(key(byte((i+g)%numShards), i))
			}
		}(g)
	}
	wg.Wait() // -race is the assertion here
}

func TestSolverTierVerdicts(t *testing.T) {
	c := New()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)
	uns := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(0, 32)), ctx.Eq(x, ctx.Const(1, 32))}, 0)

	if _, ok := c.Lookup(sat); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store(sat, symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat))
	c.Store(uns, symbolic.VerdictOf(uns, nil, symbolic.Unsat))
	c.Store(sat, symbolic.SolverVerdict{Result: symbolic.Unknown}) // must be dropped

	v, ok := c.Lookup(sat)
	if !ok || v.Result != symbolic.Sat || v.ModelFor(sat)["x"] != 4 {
		t.Fatalf("Sat replay wrong: ok=%v v=%+v", ok, v)
	}
	if v, ok := c.Lookup(uns); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("Unsat replay wrong: ok=%v v=%+v", ok, v)
	}

	// A clause-permuted variant of the Unsat query misses the Ordered key
	// but hits the Sorted tier — and only for Unsat.
	perm := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(0, 32))}, 0)
	if perm.Ordered == uns.Ordered {
		t.Fatal("test premise broken: permutation shares the Ordered key")
	}
	if v, ok := c.Lookup(perm); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("Sorted-key Unsat replay failed: ok=%v v=%+v", ok, v)
	}

	st := c.Snapshot()
	if st.SolverHits != 2 || st.SolverUnsatHits != 1 {
		t.Errorf("counters: %+v", st)
	}
}

func TestUnknownNeverStored(t *testing.T) {
	c := New()
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	c.Store(q, symbolic.SolverVerdict{Result: symbolic.Unknown})
	if _, ok := c.Lookup(q); ok {
		t.Fatal("Unknown verdict was cached")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if c.SolverMemo() != nil {
		t.Error("nil cache's SolverMemo is not a nil interface")
	}
	if st := c.Snapshot(); st != (Stats{}) {
		t.Errorf("nil snapshot: %+v", st)
	}
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	if _, ok := c.Lookup(q); ok {
		t.Error("nil cache hit")
	}
	c.Store(q, symbolic.SolverVerdict{Result: symbolic.Sat})
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{SolverHits: 10, SolverUnsatHits: 1, SolverMisses: 4, StoreHits: 2}
	b := Stats{SolverHits: 4, SolverMisses: 1}
	d := a.Sub(b)
	if d.SolverHits != 6 || d.SolverUnsatHits != 1 || d.SolverMisses != 3 || d.StoreHits != 2 {
		t.Errorf("Sub: %+v", d)
	}
	if got := a.Hits(); got != 13 {
		t.Errorf("Hits = %d, want 13", got)
	}
	if got := a.Misses(); got != 4 {
		t.Errorf("Misses = %d, want 4", got)
	}
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("empty HitRate = %v, want 0", r)
	}
	if s := fmt.Sprint(a); s == "" {
		t.Error("empty String")
	}
}

// --- disk tier --------------------------------------------------------------

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	d, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// entryPath mirrors the store's on-disk layout so tests can corrupt
// entries without exporting internals.
func entryPath(dir, tier string, k symbolic.CanonKey) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(dir, tier, h[:2], h+".v1")
}

func TestDiskTierWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)
	uns := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(0, 32)), ctx.Eq(x, ctx.Const(1, 32))}, 0)

	// First process: solve and write through.
	c1 := New()
	c1.AttachDisk(openTestStore(t, dir))
	want := symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat)
	c1.Store(sat, want)
	c1.Store(uns, symbolic.VerdictOf(uns, nil, symbolic.Unsat))

	// Second process: cold memory, warm disk.
	c2 := New()
	c2.AttachDisk(openTestStore(t, dir))
	v, ok := c2.Lookup(sat)
	if !ok || v.Result != symbolic.Sat || v.ModelFor(sat)["x"] != 4 {
		t.Fatalf("disk Sat replay wrong: ok=%v v=%+v", ok, v)
	}
	if v, ok := c2.Lookup(uns); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("disk Unsat replay wrong: ok=%v v=%+v", ok, v)
	}
	// A clause permutation misses the Ordered disk entry but hits the
	// Sorted unsat marker, exactly like the memory tiers.
	perm := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(0, 32))}, 0)
	c3 := New()
	c3.AttachDisk(openTestStore(t, dir))
	if v, ok := c3.Lookup(perm); !ok || v.Result != symbolic.Unsat {
		t.Fatalf("disk Sorted-key Unsat replay failed: ok=%v v=%+v", ok, v)
	}
	if st := c3.Snapshot(); st.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1; stats %+v", st.StoreHits, st)
	}
	// Promotion: the second lookup on c2 must be a memory hit, not disk.
	before := c2.Snapshot()
	if _, ok := c2.Lookup(sat); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	after := c2.Snapshot()
	if after.StoreHits != before.StoreHits || after.SolverHits != before.SolverHits+1 {
		t.Errorf("promotion failed: before %+v after %+v", before, after)
	}
}

// TestDiskTierBitFlipNeverPoisons is the integrity satellite at the memo
// level: every single-bit flip of a stored verdict file must degrade to
// a counted miss — the cache must never replay a damaged verdict.
func TestDiskTierBitFlipNeverPoisons(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	x := ctx.Var("x", 32)
	sat := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(x, ctx.Const(4, 32))}, 0)

	seed := New()
	seed.AttachDisk(openTestStore(t, dir))
	seed.Store(sat, symbolic.VerdictOf(sat, symbolic.Model{"x": 4}, symbolic.Sat))
	path := entryPath(dir, "solver", sat.Ordered)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flips := 0
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			corrupted := append([]byte{}, data...)
			corrupted[off] ^= 1 << bit
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			c := New() // cold memory every time: the disk entry is the only source
			c.AttachDisk(openTestStore(t, dir))
			if v, ok := c.Lookup(sat); ok {
				t.Fatalf("bit %d of byte %d flipped and the cache still served %+v", bit, off, v)
			}
			st := c.Snapshot()
			if st.StoreCorrupt != 1 || st.SolverMisses != 1 {
				t.Fatalf("flip at byte %d bit %d: corrupt=%d misses=%d, want 1/1",
					off, bit, st.StoreCorrupt, st.SolverMisses)
			}
			flips++
		}
	}
	if flips != len(data)*8 {
		t.Fatalf("exercised %d flips, want %d", flips, len(data)*8)
	}
}

// TestDiskTierRejectsForeignPayload: a CRC-valid entry whose payload is
// not a verdict encoding (wrong writer, wrong tier semantics) is a miss,
// never a guessed verdict.
func TestDiskTierRejectsForeignPayload(t *testing.T) {
	dir := t.TempDir()
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)

	d := openTestStore(t, dir)
	for _, payload := range [][]byte{
		{},                         // empty: no result byte
		{byte(symbolic.Unknown)},   // Unknown is never a valid stored verdict
		{99},                       // result byte out of range
		{byte(symbolic.Sat), 1, 2}, // ragged model bytes
	} {
		d.Put("solver", q.Ordered, payload)
		c := New()
		c.AttachDisk(d)
		if v, ok := c.Lookup(q); ok {
			t.Fatalf("foreign payload %v served verdict %+v", payload, v)
		}
		os.Remove(entryPath(dir, "solver", q.Ordered))
		// Reset the content-addressed skip-if-present index for the next shape.
		d = openTestStore(t, dir)
	}
}

func TestAttachDiskNilSafe(t *testing.T) {
	var c *Cache
	c.AttachDisk(nil) // must not panic
	if c.Disk() != nil {
		t.Fatal("nil cache reported a disk store")
	}
	c2 := New()
	c2.AttachDisk(nil)
	ctx := symbolic.NewCtx()
	q := symbolic.Canonicalize([]*symbolic.Expr{ctx.Eq(ctx.Var("x", 32), ctx.Const(9, 32))}, 0)
	c2.Store(q, symbolic.VerdictOf(q, symbolic.Model{"x": 9}, symbolic.Sat))
	if _, ok := c2.Lookup(q); !ok {
		t.Fatal("detached cache lost its memory tier")
	}
}
