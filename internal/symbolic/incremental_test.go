package symbolic

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// incremental_test.go is the differential suite for the prefix-sharing
// pre-pass: SolvePoolCtx (which always runs it on unfaulted pools) must
// answer every query with the same verdict AND the same model as the
// fresh-only reference pool, on adversarial batches — shared-prefix flip
// families, random stack-machine programs, and memo-composed runs.

// solveFresh is the reference oracle: the pool without the pre-pass.
func solveFresh(queries []Query, opts PoolOptions) ([]Answer, SolverStats, error) {
	return solvePool(context.Background(), queries, opts, false)
}

// chainFamily builds the flip-family shape: a strict Ult chain prefix with
// chain unsat flips (v_chain < v_k contradicts the chain) and one sat flip,
// as the concolic loop produces them — same prefix, one negated tail
// conjunct per query.
func chainFamily(ctx *Ctx, tag string, chain int, firstID int) []Query {
	vs := make([]*Expr, chain+1)
	for i := range vs {
		vs[i] = ctx.Var(fmt.Sprintf("%sv%d", tag, i), 32)
	}
	prefix := make([]*Expr, 0, chain)
	for i := 0; i < chain; i++ {
		prefix = append(prefix, ctx.Ult(vs[i], vs[i+1]))
	}
	var qs []Query
	id := firstID
	for k := 0; k < chain; k++ {
		cs := append(append([]*Expr{}, prefix...), ctx.Ult(vs[chain], vs[k]))
		qs = append(qs, Query{ID: id, Constraints: cs})
		id++
	}
	cs := append(append([]*Expr{}, prefix...), ctx.Ult(vs[0], vs[chain]))
	qs = append(qs, Query{ID: id, Constraints: cs})
	return qs
}

// diffPool solves the batch fresh-only and through SolvePoolCtx and
// requires per-query verdict and model agreement.
func diffPool(t *testing.T, queries []Query, opts PoolOptions) (off, on SolverStats) {
	t.Helper()
	offAns, offStats, err := solveFresh(queries, opts)
	if err != nil {
		t.Fatalf("fresh pool: %v", err)
	}
	onAns, onStats, err := SolvePoolCtx(context.Background(), queries, opts)
	if err != nil {
		t.Fatalf("incremental pool: %v", err)
	}
	byID := func(ans []Answer) map[int]Answer {
		m := make(map[int]Answer, len(ans))
		for _, a := range ans {
			m[a.ID] = a
		}
		return m
	}
	offM, onM := byID(offAns), byID(onAns)
	if len(offM) != len(onM) {
		t.Fatalf("answer count: fresh %d, incremental %d", len(offM), len(onM))
	}
	for id, a := range offM {
		b, ok := onM[id]
		if !ok {
			t.Fatalf("query %d missing from incremental answers", id)
		}
		if a.Result != b.Result {
			t.Fatalf("query %d: fresh=%v incremental=%v", id, a.Result, b.Result)
		}
		if len(a.Model) != len(b.Model) {
			t.Fatalf("query %d: model size differs (%d vs %d)", id, len(a.Model), len(b.Model))
		}
		for k, v := range a.Model {
			if b.Model[k] != v {
				t.Fatalf("query %d: model[%s] fresh=%d incremental=%d", id, k, v, b.Model[k])
			}
		}
	}
	return offStats, onStats
}

func TestIncrementalChainFamilyAgreement(t *testing.T) {
	ctx := NewCtx()
	var queries []Query
	for f := 0; f < 2; f++ {
		queries = append(queries, chainFamily(ctx, fmt.Sprintf("f%d", f), 4, len(queries))...)
	}
	for _, workers := range []int{1, 4} {
		off, on := diffPool(t, queries, PoolOptions{Workers: workers, MaxConflicts: 50_000})
		if on.AssumeUnsats == 0 {
			t.Errorf("workers=%d: incremental path refuted nothing — pre-pass not engaged", workers)
		}
		if off.Queries != on.Queries {
			t.Errorf("workers=%d: query counts differ: %d vs %d", workers, off.Queries, on.Queries)
		}
	}
}

func TestIncrementalRandomBatchAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 40; round++ {
		ctx := NewCtx()
		var queries []Query
		n := 2 + rng.Intn(6)
		for q := 0; q < n; q++ {
			data := make([]byte, 2+rng.Intn(30)*2)
			rng.Read(data)
			cs := buildFuzzConstraints(ctx, data, fmt.Sprintf("q%d_", q))
			if len(cs) == 0 {
				continue
			}
			queries = append(queries, Query{ID: len(queries), Constraints: cs})
		}
		if len(queries) == 0 {
			continue
		}
		diffPool(t, queries, PoolOptions{Workers: 1 + rng.Intn(4), MaxConflicts: 20_000})
	}
}

// TestIncrementalMemoParity runs the same batch twice against one memo per
// pool form and requires the verdicts the pre-pass stores to serve later
// lookups exactly as fresh-path stores would.
func TestIncrementalMemoParity(t *testing.T) {
	ctx := NewCtx()
	var queries []Query
	queries = append(queries, chainFamily(ctx, "a", 4, 0)...)
	queries = append(queries, chainFamily(ctx, "b", 4, len(queries))...)

	run := func(prepass bool) []Answer {
		memo := newRecordingMemo()
		var all []Answer
		for leg := 0; leg < 2; leg++ {
			ans, _, err := solvePool(context.Background(), queries, PoolOptions{
				Workers:      4,
				MaxConflicts: 50_000,
				Memo:         memo,
			}, prepass)
			if err != nil {
				t.Fatalf("leg %d: %v", leg, err)
			}
			all = append(all, ans...)
		}
		return all
	}
	off, on := run(false), run(true)
	if len(off) != len(on) {
		t.Fatalf("answer counts differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if off[i].ID != on[i].ID || off[i].Result != on[i].Result {
			t.Fatalf("answer %d: fresh (%d,%v) vs incremental (%d,%v)",
				i, off[i].ID, off[i].Result, on[i].ID, on[i].Result)
		}
		for k, v := range off[i].Model {
			if on[i].Model[k] != v {
				t.Fatalf("answer %d: model[%s] differs", i, k)
			}
		}
	}
}

// TestIncrementalChainConflictReduction is the pre-pass's work gate at the
// solver's own API: 4 inequality-chain families of length 5, each solved
// as one pool call with 4 workers and a 50,000-conflict budget, fresh-only
// and through SolvePoolCtx. Every verdict and model must agree, and the
// pre-pass must cut total CDCL conflicts by at least 30%.
//
// Chains, not the campaign corpus: generated contracts' verification
// clauses are equalities, which refute by unit propagation through the
// Tseitin gates with zero conflicts, so no solver could show a conflict
// reduction there. Bit-level propagation cannot see the transitivity of a
// comparator chain, so every fresh flip costs a real CDCL search, and the
// shared-prefix instance amortizes the learned transitivity clauses
// across the family.
func TestIncrementalChainConflictReduction(t *testing.T) {
	const families, chain = 4, 5
	ctx := NewCtx()
	opts := PoolOptions{Workers: 4, MaxConflicts: 50_000}
	var off, on SolverStats
	id := 0
	for f := 0; f < families; f++ {
		fam := chainFamily(ctx, fmt.Sprintf("f%d", f), chain, id)
		id += len(fam)
		o, n := diffPool(t, fam, opts)
		off.SATConflicts += o.SATConflicts
		on.SATConflicts += n.SATConflicts
		off.Unknowns += o.Unknowns
		on.Unknowns += n.Unknowns
		on.AssumeUnsats += n.AssumeUnsats
	}
	if off.Unknowns+on.Unknowns != 0 {
		t.Errorf("budget exhausted: %d fresh and %d pooled unknowns", off.Unknowns, on.Unknowns)
	}
	if off.SATConflicts == 0 {
		t.Fatal("fresh reference needed no conflicts: the families exercise nothing")
	}
	reduction := 1 - float64(on.SATConflicts)/float64(off.SATConflicts)
	t.Logf("%d flip queries: CDCL conflicts %d -> %d (-%.1f%%), %d pre-pass refutations",
		id, off.SATConflicts, on.SATConflicts, 100*reduction, on.AssumeUnsats)
	if reduction < 0.30 {
		t.Errorf("pre-pass cut CDCL conflicts by %.1f%%, need >= 30%%", 100*reduction)
	}
}
