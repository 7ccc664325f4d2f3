package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

// The testdata journals were written by the engine while it still had a
// static-triage pre-pass, over legacyJournalJobs with BaseSeed 7: the two
// trivial contracts carry the retired `"skipped":true` record, and every
// adaptive record's `sched` block carries the retired `score`. Two job
// records are missing from each file (ids 1 and 5, and 3 and 5), as if the
// campaign had been killed before journaling them, so a resume replays
// the rest and runs those jobs live.

// legacyJournalJobs is the population the testdata journals were written
// over: six generated contracts, then two trivial ones.
func legacyJournalJobs(t *testing.T) []Job {
	t.Helper()
	jobs := testJobs(t, 6, 30, 17)
	for i := 0; i < 2; i++ {
		c := contractgen.Trivial()
		jobs = append(jobs, Job{
			Name:   fmt.Sprintf("trivial-%d", i),
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: 30, SolverConflicts: 50_000},
		})
	}
	return jobs
}

// resumeLegacyJournal resumes a copy of the named testdata journal.
func resumeLegacyJournal(t *testing.T, name string, cfg Config) *Report {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(cfg.Journal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	rep, err := Run(context.Background(), legacyJournalJobs(t), cfg)
	if err != nil {
		t.Fatalf("resume %s: %v", name, err)
	}
	if rep.Replayed != 6 || rep.Failed != 0 || rep.Completed != 8 {
		t.Fatalf("resume %s: replayed=%d completed=%d failed=%d, want 6/8/0",
			name, rep.Replayed, rep.Completed, rep.Failed)
	}
	for _, jr := range rep.Results[6:] {
		if !jr.Replayed || jr.Result.Iterations != 0 || len(jr.Result.Report.Vulnerable) != 0 {
			t.Errorf("legacy skipped record %q did not replay as an all-clean verdict", jr.Job.Name)
		}
	}
	return rep
}

// TestLegacySkippedJournalResumes resumes a static-triage journal: the
// skipped records replay as the all-clean verdicts they stood for, so the
// stitched findings equal a fresh run's.
func TestLegacySkippedJournalResumes(t *testing.T) {
	cfg := Config{Workers: 2, BaseSeed: 7}
	rep := resumeLegacyJournal(t, "legacy_triage.journal", cfg)
	fresh, err := Run(context.Background(), legacyJournalJobs(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.FindingsDigest(), fresh.FindingsDigest(); got != want {
		t.Errorf("resumed legacy journal diverges from a fresh run:\n got: %s\nwant: %s", got, want)
	}
}

// TestLegacyScoredJournalResumes resumes an adaptive journal whose sched
// records carry the retired triage score. The score no longer ranks fuel
// recipients, so only completion is asserted: the grants of the jobs run
// live may differ from the ones the legacy engine would have made.
func TestLegacyScoredJournalResumes(t *testing.T) {
	resumeLegacyJournal(t, "legacy_triage_adaptive.journal",
		Config{Workers: 2, BaseSeed: 7, Adaptive: true, SaturationWindow: 8})
}
