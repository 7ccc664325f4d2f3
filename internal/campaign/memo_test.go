package campaign

import (
	"context"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// TestFaultMemoMatrix is the fault×memo hygiene proof: for every fault
// kind, a faulted campaign sharing a cache must (a) never read or write
// the solver tier from faulted attempts — with every attempt of every job
// faulted, the shared cache's solver counters stay zero — and (b) never
// poison shared state: a clean campaign run against the post-fault cache
// must match the memo-off reference byte for byte.
func TestFaultMemoMatrix(t *testing.T) {
	mk := func() []Job { return testJobs(t, 8, 20, 31) }
	ref, err := Run(context.Background(), mk(), Config{Workers: 2, BaseSeed: 13})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	for _, kind := range faultinject.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cache := memo.New()
			// Fault every attempt of every job so no attempt is eligible
			// for memoization; terminal failures are expected and fine.
			plan := &faultinject.Plan{Seed: 99, Rate: 1.0, Kinds: []faultinject.Kind{kind}, Attempts: 1 << 20}
			_, err := Run(context.Background(), mk(), Config{
				Workers:   2,
				BaseSeed:  13,
				Faults:    plan,
				Retry:     RetryPolicy{MaxAttempts: 2},
				MemoCache: cache,
			})
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			st := cache.Snapshot()
			if st.SolverHits != 0 || st.SolverUnsatHits != 0 || st.SolverMisses != 0 {
				t.Fatalf("faulted attempts touched the solver cache: %+v", st)
			}

			// The same cache then serves a clean campaign: if any faulted
			// state leaked in, these digests change.
			rep, err := Run(context.Background(), mk(), Config{Workers: 4, BaseSeed: 13, MemoCache: cache})
			if err != nil {
				t.Fatalf("clean run on post-fault cache: %v", err)
			}
			if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
				t.Errorf("FindingsDigest diverged on post-fault cache:\n got: %s\nwant: %s", got, want)
			}
			if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
				t.Errorf("StateDigest diverged on post-fault cache:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestMemoFaultedAttemptRetryUsesCache checks the converse boundary: with
// the default plan (only attempt 0 faulted), the retry attempt is clean
// and may use the cache — recovery must not disable memoization forever.
func TestMemoFaultedAttemptRetryUsesCache(t *testing.T) {
	mk := func() []Job { return testJobs(t, 8, 20, 31) }
	cache := memo.New()
	plan := &faultinject.Plan{Seed: 4, Rate: 0.5}
	rep, err := Run(context.Background(), mk(), Config{
		Workers:   2,
		BaseSeed:  13,
		Faults:    plan,
		Retry:     RetryPolicy{MaxAttempts: 3},
		MemoCache: cache,
	})
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if rep.Retried == 0 {
		t.Skip("plan faulted no jobs at this seed; nothing to check")
	}
	st := cache.Snapshot()
	if st.SolverMisses == 0 {
		t.Error("clean retry attempts never consulted the cache")
	}
}
