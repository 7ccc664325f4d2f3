package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// incremental_test.go holds the engine-level differential for the
// prefix-sharing solver: Config.Incremental may only ever change solver
// work, never digests, and must compose with every other engine layer —
// memoization, fault-injected retries, and journal kill+resume.

// incrementalDigests runs the same population with the flag off and on and
// requires both digest pairs to match.
func incrementalDigests(t *testing.T, mk func() []Job, cfg Config) (off *Report) {
	t.Helper()
	offCfg, onCfg := cfg, cfg
	offCfg.Incremental = false
	onCfg.Incremental = true
	off, err := Run(context.Background(), mk(), offCfg)
	if err != nil {
		t.Fatalf("incremental-off run: %v", err)
	}
	on, err := Run(context.Background(), mk(), onCfg)
	if err != nil {
		t.Fatalf("incremental-on run: %v", err)
	}
	if got, want := on.FindingsDigest(), off.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged under -incremental:\n got: %s\nwant: %s", got, want)
	}
	if got, want := on.StateDigest(), off.StateDigest(); got != want {
		t.Errorf("StateDigest diverged under -incremental:\n got: %s\nwant: %s", got, want)
	}
	return off
}

// TestIncrementalDigestInvariance is the flag's core contract at every
// worker count the determinism suite uses, cross-checked against a single
// reference so worker count and flag state are both witnessed at once.
func TestIncrementalDigestInvariance(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	var refFindings, refState string
	for i, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			off := incrementalDigests(t, mk, Config{Workers: workers, BaseSeed: 7})
			if i == 0 {
				refFindings, refState = off.FindingsDigest(), off.StateDigest()
				return
			}
			if off.FindingsDigest() != refFindings || off.StateDigest() != refState {
				t.Errorf("digests drifted across worker counts")
			}
		})
	}
}

// TestIncrementalComposesWithMemoAndTriage stacks the flag on top of
// cross-job memoization: both layers promise digest invariance, and this
// is the witness that the promises hold together, not just one at a time.
// (Static triage, the third layer the name records, no longer exists:
// every job fuzzes.)
func TestIncrementalComposesWithMemoAndTriage(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	incrementalDigests(t, mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Memo:     memo.ModeOn,
	})
}

// TestIncrementalComposesWithChaos injects faults with retries enabled on
// both sides of the differential. Faulted attempts bypass the incremental
// pre-pass entirely (exactly as they bypass the memo), so the injector's
// deterministic per-query call count — and with it every verdict — must be
// unchanged by the flag.
func TestIncrementalComposesWithChaos(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	off := incrementalDigests(t, mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
		Retry:    RetryPolicy{MaxAttempts: 3},
	})
	if off.Failed != 0 {
		t.Fatalf("%d terminal failures at 20%% fault rate with retries", off.Failed)
	}
}

// TestIncrementalKillResume kills an incremental campaign mid-flight and
// resumes it from the journal: the stitched result must match a fault-free
// incremental-off reference bit for bit.
func TestIncrementalKillResume(t *testing.T) {
	const nJobs = 12
	mk := func() []Job { return testJobs(t, nJobs, 30, 21) }
	cfg := Config{Workers: 4, BaseSeed: 5}
	ref, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	icfg := cfg
	icfg.Incremental = true
	icfg.Journal = journal
	e, err := Start(ctx, icfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		defer e.Close()
		jobs := mk()
		for i := range jobs {
			jobs[i].ID = i
			if err := e.Submit(jobs[i]); err != nil {
				return // engine cancelled mid-submission; expected
			}
		}
	}()
	completed := 0
	for jr := range e.Results() {
		if jr.Err == nil {
			completed++
		}
		if completed == 4 {
			cancel()
		}
	}
	if completed < 4 {
		t.Fatalf("interrupted run completed only %d jobs before draining", completed)
	}

	rcfg := icfg
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("resumed run replayed nothing from the journal")
	}
	if got, want := rep.FindingsDigest(), ref.FindingsDigest(); got != want {
		t.Errorf("FindingsDigest diverged after incremental kill+resume:\n got: %s\nwant: %s", got, want)
	}
	if got, want := rep.StateDigest(), ref.StateDigest(); got != want {
		t.Errorf("StateDigest diverged after incremental kill+resume:\n got: %s\nwant: %s", got, want)
	}
}
