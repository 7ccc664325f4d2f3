package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/memo"
)

// memo.go is the memoization experiment: a fork-heavy corpus fuzzed
// without a cache and with a fresh memo.New() at several worker counts.
// It asserts the layer's two contracted properties at once —
// FindingsDigest and StateDigest byte-identical with and without the
// cache at every worker count, and at least 30% of all solver queries
// answered from the cache instead of recomputed. `wasai-bench -exp memo`
// exits non-zero when either property fails.
//
// The work half counts recomputed queries (cache misses) against all
// queries rather than DPLL calls: the solver pool's prefix-sharing
// pre-pass answers this whole corpus before any SAT search, so both runs
// make zero DPLL calls and a DPLL count has nothing left to cut.
//
// The corpus mirrors the redundancy structure of the wild population the
// paper scans (§4.4): the EOSIO mainnet is dominated by forked and
// re-deployed variants of a few gambling-contract templates, so a batch
// analysis solves near-identical path conditions over and over across
// jobs. The experiment generates a small set of distinct contracts —
// drawn with §4.3-style verification clauses, the shape whose equality
// chains actually reach the DPLL instead of the concrete-probing fast
// path — and deploys each as several forks fuzzed under different seeds.
// Cross-job sharing is what is measured: the forks are distinct jobs with
// distinct fuzzing seeds, and only the memo layer connects them.

// MemoConfig tunes the memoization experiment.
type MemoConfig struct {
	// DistinctContracts is the number of distinct generated contracts;
	// ForkFactor how many forks of each enter the corpus (each fork is
	// its own job with its own fuzzing seed).
	DistinctContracts int
	ForkFactor        int
	FuzzIterations    int
	Seed              int64
	// WorkerCounts are the pool sizes the differential runs at.
	WorkerCounts []int
}

// DefaultMemoConfig is the acceptance-gate shape: 36 jobs (6 distinct
// contracts × 6 forks) at the 1/4/8 worker counts the campaign
// determinism suite uses.
func DefaultMemoConfig() MemoConfig {
	return MemoConfig{
		DistinctContracts: 6,
		ForkFactor:        6,
		FuzzIterations:    120,
		Seed:              3,
		WorkerCounts:      []int{1, 4, 8},
	}
}

// MemoWorkerRun is the cacheless/cached comparison at one worker count.
type MemoWorkerRun struct {
	Workers int
	// Queries is the cacheless run's solver-query count: every one is
	// computed. (The cached run counts the same queries — a hit still
	// counts its query.)
	Queries int
	// Recomputed is the cached run's misses: queries it had to compute.
	Recomputed int64
	// DigestMatch reports whether the cached run's FindingsDigest AND
	// StateDigest equal the cacheless run's.
	DigestMatch bool
	// Stats is the cached run's counter delta.
	Stats memo.Stats
}

// Reduction is the fraction of solver queries the cache spared from
// recomputation at this worker count.
func (r MemoWorkerRun) Reduction() float64 {
	if r.Queries == 0 {
		return 0
	}
	return 1 - float64(r.Recomputed)/float64(r.Queries)
}

// MemoResult aggregates the experiment.
type MemoResult struct {
	Total int
	Runs  []MemoWorkerRun
	// DigestMatch is true when every run (with and without the cache, at
	// every worker count) produced one identical pair of digests.
	DigestMatch bool
	// OffWall and OnWall compare wall-clock at the last worker count
	// (reporting-only).
	OffWall, OnWall time.Duration
}

// MinReduction returns the smallest reduction across worker counts (miss
// counts vary slightly with concurrency — parallel workers can miss on
// one key simultaneously — so the gate holds the worst case to the
// threshold).
func (r *MemoResult) MinReduction() float64 {
	min := 1.0
	for _, run := range r.Runs {
		if red := run.Reduction(); red < min {
			min = red
		}
	}
	if len(r.Runs) == 0 {
		return 0
	}
	return min
}

// Passed is the acceptance gate: byte-identical digests everywhere and at
// least 30% of queries served from the cache at every worker count.
func (r *MemoResult) Passed() bool {
	return r.DigestMatch && r.MinReduction() >= 0.30
}

// memoClasses are the vulnerability classes whose generated verification
// clauses reliably defeat the solver's concrete-probing fast path, so the
// corpus carries real solver work.
var memoClasses = []contractgen.Class{
	contractgen.ClassMissAuth,
	contractgen.ClassBlockinfoDep,
	contractgen.ClassRollback,
}

// EvaluateMemo runs the fork corpus without a cache and with a fresh one
// at each configured worker count and compares digests and solver work.
func EvaluateMemo(cfg MemoConfig) (*MemoResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	type forked struct {
		contract *contractgen.Contract
		name     string
	}
	var corpus []forked
	for d := 0; d < cfg.DistinctContracts; d++ {
		class := memoClasses[d%len(memoClasses)]
		spec := contractgen.RandomSpec(class, d%2 == 0, rng)
		spec.Verification = randomVerification(rng, &spec)
		c, err := contractgen.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("bench: memo corpus %d: %w", d, err)
		}
		for f := 0; f < cfg.ForkFactor; f++ {
			corpus = append(corpus, forked{contract: c, name: fmt.Sprintf("fork-%d-%d", d, f)})
		}
	}
	makeJobs := func() []campaign.Job {
		jobs := make([]campaign.Job, len(corpus))
		for i := range corpus {
			jobs[i] = campaign.Job{
				Name:   corpus[i].name,
				Module: corpus[i].contract.Module,
				ABI:    corpus[i].contract.ABI,
				Config: fuzz.Config{
					Iterations:      cfg.FuzzIterations,
					SolverConflicts: 50_000,
					Seed:            cfg.Seed + int64(i),
				},
			}
		}
		return jobs
	}
	workerCounts := cfg.WorkerCounts
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}

	res := &MemoResult{Total: len(corpus), DigestMatch: true}
	var refFindings, refState string
	for i, workers := range workerCounts {
		off, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench: memo off (workers=%d): %w", workers, err)
		}
		on, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: workers, MemoCache: memo.New()})
		if err != nil {
			return nil, fmt.Errorf("bench: memo on (workers=%d): %w", workers, err)
		}
		if i == 0 {
			refFindings, refState = off.FindingsDigest(), off.StateDigest()
		}
		match := off.FindingsDigest() == refFindings && off.StateDigest() == refState &&
			on.FindingsDigest() == refFindings && on.StateDigest() == refState
		if !match {
			res.DigestMatch = false
		}
		run := MemoWorkerRun{
			Workers:     workers,
			Queries:     off.SolverStats.Queries,
			Recomputed:  on.Memo.SolverMisses,
			DigestMatch: match,
			Stats:       *on.Memo,
		}
		res.Runs = append(res.Runs, run)
		res.OffWall, res.OnWall = off.Wall, on.Wall
	}
	return res, nil
}

// RenderMemo prints the experiment summary.
func RenderMemo(r *MemoResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "memo — cross-job memoization differential (%d contracts)\n", r.Total)
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "workers=%d: recomputed queries %d -> %d (-%.1f%%), digests identical=%v\n",
			run.Workers, run.Queries, run.Recomputed, 100*run.Reduction(), run.DigestMatch)
		fmt.Fprintf(&sb, "  cache: %s\n", run.Stats)
	}
	fmt.Fprintf(&sb, "wall (last worker count): no cache %.2fs, cache %.2fs\n", r.OffWall.Seconds(), r.OnWall.Seconds())
	if r.Passed() {
		fmt.Fprintf(&sb, "memo: PASS — byte-identical digests, ≥30%% fewer recomputed queries (min %.1f%%)\n", 100*r.MinReduction())
	} else {
		fmt.Fprintf(&sb, "memo: FAIL — digests identical=%v, min recomputation cut %.1f%% (need ≥30%%)\n",
			r.DigestMatch, 100*r.MinReduction())
	}
	return sb.String()
}
