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

// lattice_test.go is the campaign's one invariance harness. Every row is a
// population and engine configuration; every cell runs the row at a worker
// count, with or without a solver cache, uninterrupted or killed mid-flight
// and resumed from its journal. Nothing a cell varies may reach the
// digests: each cell must reproduce its row's pinned reference, or — for
// the adaptive row, which has no pinned reference — the row's first cell.

// refDigests is a pair of pinned digests, each the SHA-256 of the
// corresponding Report digest string.
type refDigests struct{ findings, state string }

// References (FindingsDigest, StateDigest), produced by the tree-walking
// interpreter with a fresh-only solver pool and no cache, before the
// decoded-IR engine and the solver pre-pass became unconditional.
var (
	// testJobs(16, 30, 13) at BaseSeed 7, at any worker count, with or
	// without a cache.
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

// digestsOf hashes rep's two digests the way the references are pinned.
func digestsOf(rep *Report) refDigests {
	return refDigests{sha256Hex(rep.FindingsDigest()), sha256Hex(rep.StateDigest())}
}

// killMidFlight runs jobs under cfg (which must name a Journal) and kills
// the campaign once after jobs have completed, leaving the journal a
// resumed run picks up. The adaptive driver has no streaming form to
// cancel at a chosen point, so an adaptive campaign is journaled in full
// and cut back to its first after records: the durable state a SIGKILL
// after that many synced records leaves behind.
func killMidFlight(t *testing.T, jobs []Job, cfg Config, after int) {
	t.Helper()
	if cfg.Adaptive {
		cfg.JournalSync = 1
		if _, err := Run(context.Background(), jobs, cfg); err != nil {
			t.Fatalf("journaled run: %v", err)
		}
		keepJournalPrefix(t, cfg.Journal, after)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := Start(ctx, cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		defer e.Close()
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
		if completed == after {
			cancel()
		}
	}
	if completed < after {
		t.Fatalf("interrupted run completed only %d jobs before draining", completed)
	}
}

// TestInvarianceLattice runs every row at workers {1, 4, 8} × cache {nil,
// one memo.New() shared by every cache cell of the lattice} ×
// {uninterrupted, kill+resume}.
//
// Beyond digest identity, a cell checks what its coordinates promise: a
// cache cell reports solver hits and never does more DPLL work than the
// nil cell beside it; a nil cell reports no cache; a resumed cell replayed
// journal records; no cell ends with a terminal failure; and each
// adaptive row moves fuel in at least one cell, so the fuel ledger's
// second phase (and, in the chaos variant, its whole-job retry) runs here
// under -race.
func TestInvarianceLattice(t *testing.T) {
	population := func() []Job { return testJobs(t, 16, 30, 13) }
	// A 12-iteration saturation window lets jobs of the adaptive
	// population saturate within their 40, so the fuel ledger regrants.
	adaptivePopulation := func() []Job { return testJobs(t, 10, 40, 31) }
	adaptive := Config{BaseSeed: 3, Adaptive: true, SaturationWindow: 12}
	adaptiveChaos := adaptive
	adaptiveChaos.Faults = &faultinject.Plan{Seed: 99, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindSolverStarve}}
	adaptiveChaos.Retry = RetryPolicy{MaxAttempts: 3}
	rows := []struct {
		name string
		mk   func() []Job
		cfg  Config
		want *refDigests // nil: every cell must match the row's first
	}{
		{"population", population, Config{BaseSeed: 7}, &refPopulation},
		{"resume-population", func() []Job { return testJobs(t, 12, 30, 21) }, Config{BaseSeed: 5}, &refKillResume},
		{"chaos", population, Config{
			BaseSeed: 7,
			Faults:   &faultinject.Plan{Seed: 99, Rate: 0.2},
			Retry:    RetryPolicy{MaxAttempts: 3},
		}, &refChaos},
		{"adaptive", adaptivePopulation, adaptive, nil},
		// Every job's first attempt starves the solver from its first few
		// queries on. A 3-iteration job reaches the barrier before its
		// fault fires, so the fault lands in phase 2 and the retry runs
		// the whole job again (adaptiveRun.fullAttempt).
		{"adaptive-chaos", func() []Job {
			jobs := adaptivePopulation()
			for i := 0; i < len(jobs); i += 3 {
				jobs[i].Config.Iterations = 3
			}
			return jobs
		}, adaptiveChaos, nil},
	}
	shared := memo.New()
	type cell struct {
		name    string
		workers int
		cache   *memo.Cache
		resume  bool
	}
	var cells []cell
	for _, workers := range []int{1, 4, 8} {
		for _, cache := range []struct {
			name string
			c    *memo.Cache
		}{{"nil", nil}, {"shared", shared}} {
			for _, run := range []struct {
				name   string
				resume bool
			}{{"uninterrupted", false}, {"kill+resume", true}} {
				cells = append(cells, cell{
					name:    fmt.Sprintf("workers=%d/%s/%s", workers, cache.name, run.name),
					workers: workers, cache: cache.c, resume: run.resume,
				})
			}
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want := row.want
			reallocated := false
			nilSATCalls := map[int]int{}
			for _, c := range cells {
				t.Run(c.name, func(t *testing.T) {
					cfg := row.cfg
					cfg.Workers = c.workers
					cfg.MemoCache = c.cache
					if c.resume {
						cfg.Journal = filepath.Join(t.TempDir(), "campaign.jsonl")
						killMidFlight(t, row.mk(), cfg, 4)
						cfg.Resume = true
					}
					rep, err := Run(context.Background(), row.mk(), cfg)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					got := digestsOf(rep)
					if want == nil {
						want = &got // the adaptive row's first cell
					}
					if got.findings != want.findings {
						t.Errorf("FindingsDigest diverged:\n got: %s\nwant: %s\n%s", got.findings, want.findings, rep.FindingsDigest())
					}
					if got.state != want.state {
						t.Errorf("StateDigest diverged:\n got: %s\nwant: %s\n%s", got.state, want.state, rep.StateDigest())
					}
					if rep.Failed != 0 {
						t.Errorf("%d terminal failures", rep.Failed)
					}
					if c.resume && rep.Replayed == 0 {
						t.Error("resumed run replayed nothing from the journal")
					}
					if rep.Sched.FuelReallocated > 0 {
						reallocated = true
					}
					switch {
					case c.cache == nil:
						if rep.Memo != nil {
							t.Error("cacheless run reports cache stats")
						}
						if !c.resume {
							nilSATCalls[c.workers] = rep.SolverStats.SATCalls
						}
					case rep.Memo == nil:
						t.Error("cached run reports no cache stats")
					case rep.Memo.SolverHits == 0:
						t.Error("cached run recorded zero solver hits; nothing was memoized")
					case !c.resume && rep.SolverStats.SATCalls > nilSATCalls[c.workers]:
						t.Errorf("cached run did more DPLL work than the cacheless one: %d > %d",
							rep.SolverStats.SATCalls, nilSATCalls[c.workers])
					}
				})
			}
			if row.cfg.Adaptive && !reallocated {
				t.Error("no adaptive cell reallocated fuel: the ledger's second phase never ran")
			}
		})
	}
}
