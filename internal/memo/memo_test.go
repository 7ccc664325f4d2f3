package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/contractgen"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/wasm"
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

func testModuleBytes(t *testing.T) []byte {
	t.Helper()
	c, err := contractgen.Generate(contractgen.Spec{Class: contractgen.ClassFakeEOS, Vulnerable: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestModuleTier(t *testing.T) {
	c := New()
	bin := testModuleBytes(t)
	calls := 0
	decode := func(b []byte) (*wasm.Module, error) {
		calls++
		return wasm.Decode(b)
	}
	m1, err := c.Module(bin, decode)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Module(bin, decode)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("decode ran %d times, want 1", calls)
	}
	if m1 != m2 {
		t.Error("cached module is not the same instance")
	}
	// Failed decodes are not cached.
	failCalls := 0
	fail := func(b []byte) (*wasm.Module, error) { failCalls++; return nil, errors.New("boom") }
	if _, err := c.Module([]byte("junk"), fail); err == nil {
		t.Fatal("decode error swallowed")
	}
	if _, err := c.Module([]byte("junk"), fail); err == nil {
		t.Fatal("decode error swallowed on second call")
	}
	if failCalls != 2 {
		t.Errorf("failed decode was cached: %d calls, want 2", failCalls)
	}
	st := c.Snapshot()
	if st.ModuleHits != 1 || st.ModuleMisses != 3 {
		t.Errorf("module counters: %+v", st)
	}
}

// TestEvictedModuleCollectable pins that the cache holds a decoded module
// only through its module tier: once FIFO eviction drops the entry, nothing
// in the cache may keep the module reachable. A process-wide cache (Shared)
// sees every module a long-lived daemon decodes, so any side index keyed by
// module pointer would pin them all.
func TestEvictedModuleCollectable(t *testing.T) {
	c := New()
	c.modules.init(1)
	bin := testModuleBytes(t)
	ref := decodeWeak(t, c, bin)
	sum := sha256.Sum256(bin)
	c.modules.put(key(sum[0], 1), nil) // same shard, capacity 1: evicts bin
	if _, ok := c.modules.get(sum); ok {
		t.Fatal("module still in the tier after eviction")
	}
	for i := 0; i < 4 && ref.Value() != nil; i++ {
		runtime.GC()
	}
	if ref.Value() != nil {
		t.Error("evicted module still reachable through the cache")
	}
	runtime.KeepAlive(c)
}

// decodeWeak decodes bin through the module tier and returns only a weak
// pointer to the result.
func decodeWeak(t *testing.T, c *Cache, bin []byte) weak.Pointer[wasm.Module] {
	t.Helper()
	m, err := c.Module(bin, wasm.Decode)
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(m)
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
	bin := testModuleBytes(t)
	if _, err := c.Module(bin, wasm.Decode); err != nil {
		t.Errorf("nil cache Module: %v", err)
	}
}

func TestParseModeForMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "on": ModeOn, "shared": ModeShared} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
	if ForMode(ModeOff) != nil {
		t.Error("ForMode(off) != nil")
	}
	a, b := ForMode(ModeOn), ForMode(ModeOn)
	if a == nil || a == b {
		t.Error("ForMode(on) must return fresh private caches")
	}
	s1, s2 := ForMode(ModeShared), ForMode(ModeShared)
	if s1 == nil || s1 != s2 {
		t.Error("ForMode(shared) must return the process singleton")
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{SolverHits: 10, SolverMisses: 4, ModuleHits: 2, ModuleMisses: 1}
	b := Stats{SolverHits: 4, SolverMisses: 1}
	d := a.Sub(b)
	if d.SolverHits != 6 || d.SolverMisses != 3 || d.ModuleHits != 2 || d.ModuleMisses != 1 {
		t.Errorf("Sub: %+v", d)
	}
	if got := a.Hits(); got != 12 {
		t.Errorf("Hits = %d, want 12", got)
	}
	if got := a.Misses(); got != 5 {
		t.Errorf("Misses = %d, want 5", got)
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

// TestSharedWithDisk: the per-store shared-cache registry. The plain
// Shared() cache must never gain a disk tier as a side effect — a
// Memo="shared" campaign with a StoreDir would otherwise leak its disk
// store into every later shared campaign (and a second StoreDir would
// swap the tier under running ones).
func TestSharedWithDisk(t *testing.T) {
	d1 := openTestStore(t, t.TempDir())
	d2 := openTestStore(t, t.TempDir())

	c1 := SharedWithDisk(d1)
	if c1 == Shared() {
		t.Fatal("SharedWithDisk returned the plain shared cache")
	}
	if c1.Disk() != d1 {
		t.Fatal("SharedWithDisk cache not bound to its store")
	}
	if Shared().Disk() != nil {
		t.Fatal("plain shared cache gained a disk tier")
	}
	if again := SharedWithDisk(d1); again != c1 {
		t.Fatal("SharedWithDisk is not stable per store")
	}
	c2 := SharedWithDisk(d2)
	if c2 == c1 {
		t.Fatal("two stores share one cache: a second StoreDir would swap the first's tier")
	}
	if c1.Disk() != d1 || c2.Disk() != d2 {
		t.Fatalf("disk bindings crossed: c1=%p c2=%p", c1.Disk(), c2.Disk())
	}
	if SharedWithDisk(nil) != Shared() {
		t.Fatal("SharedWithDisk(nil) must be the plain shared cache")
	}
}
