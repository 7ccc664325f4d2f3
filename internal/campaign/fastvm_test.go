package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// fastvm_test.go pins the campaign digests of the decoded-IR execution
// engine — the only campaign engine — to reference values the tree-walking
// interpreter produced before the fast engine became unconditional. Each
// test was an off/on differential; the "off" side is now a pinned
// constant, so the engine must still reproduce the reference interpreter's
// findings and campaign state bit for bit, composed with every other
// engine layer — memoization, static triage, the incremental solver,
// fault-injected retries, and journal kill+resume.

// refDigests is a pair of pinned digests, each the SHA-256 of the
// corresponding Report digest string.
type refDigests struct{ findings, state string }

// Tree-walker references (FindingsDigest, StateDigest).
var (
	// testJobs(16, 30, 13) at BaseSeed 7, at any worker count and with
	// memo, triage and the incremental solver layered on.
	refPopulation = refDigests{
		"85db27e7f394168a84b809344285660c9a5c2d13bf3edf94ef9546990c6d6602",
		"b506b66ad45e1723494dafe8f283c031e2acffaceb4cdf80c27406b176f6e441",
	}
	// The same population under Faults{Seed: 99, Rate: 0.2} with three
	// attempts per job.
	refChaos = refDigests{
		"dd1933d25db549b3e7d5ce114402f21d5b86d6163eea851c719b20e43c76c26f",
		"9f84a40e5a38c597e00ba509bb9d09e5116409f7d5e2817a4414e0c11fc97873",
	}
	// testJobs(12, 30, 21) at BaseSeed 5.
	refKillResume = refDigests{
		"596bba01d2bb35c19434fa755c20e943dca77b936e7499587c31e33d8494d021",
		"c6591284673a33ad217bad04203ddb9c1e54f531d538fc1a5cb95564aa6482e4",
	}
)

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// requireReference fails unless both of rep's digests hash to want.
func requireReference(t *testing.T, rep *Report, want refDigests) {
	t.Helper()
	if got := sha256Hex(rep.FindingsDigest()); got != want.findings {
		t.Errorf("FindingsDigest diverged from the tree-walker reference:\n got: %s\nwant: %s\n%s", got, want.findings, rep.FindingsDigest())
	}
	if got := sha256Hex(rep.StateDigest()); got != want.state {
		t.Errorf("StateDigest diverged from the tree-walker reference:\n got: %s\nwant: %s\n%s", got, want.state, rep.StateDigest())
	}
}

// runReference runs the population and requires the pinned digests.
func runReference(t *testing.T, mk func() []Job, cfg Config, want refDigests) *Report {
	t.Helper()
	rep, err := Run(context.Background(), mk(), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	requireReference(t, rep, want)
	return rep
}

// TestFastVMDigestInvariance pins the engine at every worker count the
// determinism suite uses, so worker count and engine are both witnessed
// against one reference.
func TestFastVMDigestInvariance(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runReference(t, mk, Config{Workers: workers, BaseSeed: 7}, refPopulation)
		})
	}
}

// TestFastVMComposesWithMemoTriageIncremental stacks cross-job
// memoization, static triage, and the incremental solver on the engine:
// each layer promises digest invariance, and this is the witness that the
// promises hold together against the tree-walker's reference.
func TestFastVMComposesWithMemoTriageIncremental(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	runReference(t, mk, Config{
		Workers:      4,
		BaseSeed:     7,
		Memo:         memo.ModeOn,
		StaticTriage: true,
		Incremental:  true,
	}, refPopulation)
}

// TestFastVMComposesWithChaos injects faults with retries enabled. The
// engines are observably identical, so the injector's deterministic
// host-call count lands each fault on the same call the tree-walker's
// reference run saw, and every verdict must match it.
func TestFastVMComposesWithChaos(t *testing.T) {
	mk := func() []Job { return testJobs(t, 16, 30, 13) }
	rep := runReference(t, mk, Config{
		Workers:  4,
		BaseSeed: 7,
		Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
		Retry:    RetryPolicy{MaxAttempts: 3},
	}, refChaos)
	if rep.Failed != 0 {
		t.Fatalf("%d terminal failures at 20%% fault rate with retries", rep.Failed)
	}
}

// TestFastVMKillResume kills a campaign mid-flight and resumes it from the
// journal: the stitched result must match the tree-walker's fault-free
// reference bit for bit.
func TestFastVMKillResume(t *testing.T) {
	const nJobs = 12
	mk := func() []Job { return testJobs(t, nJobs, 30, 21) }
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fcfg := Config{Workers: 4, BaseSeed: 5, Journal: journal}
	e, err := Start(ctx, fcfg)
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

	rcfg := fcfg
	rcfg.Resume = true
	rep, err := Run(context.Background(), mk(), rcfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("resumed run replayed nothing from the journal")
	}
	requireReference(t, rep, refKillResume)
}
