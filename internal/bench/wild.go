package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/failure"
	"repro/internal/fuzz"
	"repro/internal/memo"
)

// WildConfig tunes the RQ4 reproduction.
type WildConfig struct {
	NumContracts   int
	FuzzIterations int
	Seed           int64
	// Workers bounds campaign-engine parallelism (0 = GOMAXPROCS).
	Workers int
	// Journal checkpoints the sweep to this JSONL path; Resume replays
	// contracts already journaled there (see internal/campaign).
	Journal string
	Resume  bool
	// MaxAttempts retries failed contracts with degraded budgets.
	MaxAttempts int
	// Memo selects cross-job memoization (off/on/shared); a resumed sweep
	// with "shared" starts with the interrupted run's warm cache.
	Memo memo.Mode
	// Incremental enables the prefix-sharing incremental solver
	// (findings are identical either way).
	Incremental bool
	// Verdicts enables abstract-interpretation verdict triage: jobs with
	// all classes proven negative skip execution, proven-positive jobs
	// schedule confirmed-first (findings are identical either way).
	Verdicts bool
	// Adaptive runs the sweep under the coverage-driven power schedule and
	// campaign fuel ledger. Deterministic at any worker count, but not
	// digest-neutral against a static sweep — it changes which inputs run.
	Adaptive bool
}

// DefaultWildConfig mirrors §4.4: 991 profitable contracts.
func DefaultWildConfig() WildConfig {
	return WildConfig{NumContracts: 991, FuzzIterations: 240, Seed: 1}
}

// WildResult aggregates the RQ4 study outcome.
type WildResult struct {
	Total          int
	Flagged        int
	PerClass       map[contractgen.Class]int
	StillOperating int
	Abandoned      int
	Patched        int
	Exposed        int
	// VerifiedPatched counts patched versions WASAI re-analyzed and found
	// clean (the paper's footnote 1: "we further applied WASAI to analyze
	// their latest version to investigate whether the vulnerability has
	// been patched").
	VerifiedPatched int
	// Accuracy vs the generator's ground truth (the paper verified 100
	// samples manually; we can score everything).
	PerClassAccuracy map[contractgen.Class]Counts
	// Wall-clock throughput of the scan, from the campaign engine.
	JobsPerSecond float64
	// TerminalFailures counts contracts that failed even after retries;
	// PerFailure breaks them down by failure class. A failed contract is
	// excluded from the accuracy and lifecycle tallies (it has no verdict),
	// not silently scored clean.
	TerminalFailures int
	PerFailure       map[failure.Class]int
	// Degraded, Retried and Replayed surface the engine's resilience
	// counters (results from degraded attempts are real verdicts, but a
	// reader comparing against the paper should know how many ran with
	// reduced budgets).
	Degraded, Retried, Replayed int
}

// EvaluateWild generates the wild population, fuzzes every contract on the
// campaign engine, and reproduces the §4.4 analysis including the
// patch/abandon lifecycle. The patched-version re-analyses run as a second
// engine batch.
func EvaluateWild(cfg WildConfig) (*WildResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(cfg.NumContracts), rng)
	if err != nil {
		return nil, err
	}
	res := &WildResult{
		Total:            len(pop),
		PerClass:         map[contractgen.Class]int{},
		PerClassAccuracy: map[contractgen.Class]Counts{},
		PerFailure:       map[failure.Class]int{},
	}
	engCfg := campaign.Config{
		Workers:     cfg.Workers,
		Journal:     cfg.Journal,
		Resume:      cfg.Resume,
		Retry:       campaign.RetryPolicy{MaxAttempts: cfg.MaxAttempts},
		Memo:        cfg.Memo,
		Incremental: cfg.Incremental,
		Verdicts:    cfg.Verdicts,
		Adaptive:    cfg.Adaptive,
	}
	fuzzCfg := func(i int) fuzz.Config {
		return fuzz.Config{
			Iterations:      cfg.FuzzIterations,
			SolverConflicts: 50_000,
			Seed:            cfg.Seed + int64(i),
		}
	}

	// Sweep the population: one engine job per contract.
	jobs := make([]campaign.Job, len(pop))
	for i := range pop {
		jobs[i] = campaign.Job{
			Name:   pop[i].Name.String(),
			Module: pop[i].Contract.Module,
			ABI:    pop[i].Contract.ABI,
			Config: fuzzCfg(i),
		}
	}
	rep, err := campaign.Run(context.Background(), jobs, engCfg)
	if err != nil {
		return nil, err
	}
	res.JobsPerSecond = rep.JobsPerSecond
	res.Degraded = rep.Degraded
	res.Retried = rep.Retried
	res.Replayed = rep.Replayed

	// Lifecycle analysis; collect the patched versions of flagged contracts
	// for the re-analysis batch.
	var (
		patchedJobs []campaign.Job
	)
	for i := range pop {
		wc := &pop[i]
		jr := rep.Results[i]
		if jr.Err != nil {
			// A terminal failure is a counted outcome, not a bench abort:
			// the sweep's job is to report on the whole population, and one
			// sick contract must not cost the other N-1 results.
			res.TerminalFailures++
			res.PerFailure[failureClassOf(jr)]++
			continue
		}
		run := jr.Result
		flagged := false
		for cl, truth := range wc.Truth {
			verdict := run.Report.Vulnerable[cl]
			if verdict {
				res.PerClass[cl]++
				flagged = true
			}
			c := res.PerClassAccuracy[cl]
			c.Add(truth, verdict)
			res.PerClassAccuracy[cl] = c
		}
		if !flagged {
			continue
		}
		res.Flagged++
		switch {
		case wc.Abandoned:
			res.Abandoned++
		case wc.Patched:
			res.StillOperating++
			res.Patched++
			// Queue the latest (patched) version for re-analysis.
			if wc.PatchedContract != nil {
				patchedJobs = append(patchedJobs, campaign.Job{
					Name:   wc.Name.String() + "(patched)",
					Module: wc.PatchedContract.Module,
					ABI:    wc.PatchedContract.ABI,
					Config: fuzzCfg(i),
				})
			}
		default:
			res.StillOperating++
			res.Exposed++
		}
	}

	// Re-analyze the patched versions (paper footnote 1) as a second batch.
	if len(patchedJobs) > 0 {
		// The second batch checkpoints to its own file: sharing the path
		// would truncate the main sweep's journal.
		patchedCfg := engCfg
		if patchedCfg.Journal != "" {
			patchedCfg.Journal += ".patched"
		}
		prep, err := campaign.Run(context.Background(), patchedJobs, patchedCfg)
		if err != nil {
			return nil, err
		}
		for _, jr := range prep.Results {
			if jr.Err != nil {
				res.TerminalFailures++
				res.PerFailure[failureClassOf(jr)]++
				continue
			}
			clean := true
			for _, cl := range contractgen.Classes {
				if jr.Result.Report.Vulnerable[cl] {
					clean = false
				}
			}
			if clean {
				res.VerifiedPatched++
			}
		}
	}
	return res, nil
}

// failureClassOf resolves a failed job's class, falling back to chain
// inspection for results that predate classification (replayed journals).
func failureClassOf(jr campaign.JobResult) failure.Class {
	if jr.FailureClass != failure.None {
		return jr.FailureClass
	}
	return failure.ClassOf(jr.Err)
}

// RenderWild prints the §4.4 summary.
func RenderWild(r *WildResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "RQ4 — vulnerabilities in the wild (%d profitable contracts)\n", r.Total)
	fmt.Fprintf(&sb, "flagged vulnerable: %d (%.1f%%)\n", r.Flagged, 100*float64(r.Flagged)/float64(r.Total))
	for _, cl := range contractgen.Classes {
		fmt.Fprintf(&sb, "  %-14s %4d flagged (P=%.1f%% R=%.1f%% vs ground truth)\n",
			cl, r.PerClass[cl],
			100*r.PerClassAccuracy[cl].Precision(), 100*r.PerClassAccuracy[cl].Recall())
	}
	if r.Flagged > 0 {
		fmt.Fprintf(&sb, "lifecycle of flagged contracts: %d still operating (%.1f%%), %d abandoned, %d patched (%d verified clean on re-analysis), %d exposed\n",
			r.StillOperating, 100*float64(r.StillOperating)/float64(r.Flagged),
			r.Abandoned, r.Patched, r.VerifiedPatched, r.Exposed)
	}
	if r.JobsPerSecond > 0 {
		fmt.Fprintf(&sb, "throughput: %.1f contracts/s\n", r.JobsPerSecond)
	}
	if r.Retried > 0 || r.Degraded > 0 || r.Replayed > 0 {
		fmt.Fprintf(&sb, "resilience: %d retried, %d degraded, %d replayed from journal\n",
			r.Retried, r.Degraded, r.Replayed)
	}
	if r.TerminalFailures > 0 {
		fmt.Fprintf(&sb, "terminal failures: %d\n", r.TerminalFailures)
		for _, cl := range failure.Classes {
			if n := r.PerFailure[cl]; n > 0 {
				fmt.Fprintf(&sb, "  failures[%s] %d\n", cl, n)
			}
		}
		if n := r.PerFailure[failure.Unclassified]; n > 0 {
			fmt.Fprintf(&sb, "  failures[%s] %d\n", failure.Unclassified, n)
		}
	}
	return sb.String()
}
