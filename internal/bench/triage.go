package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/static"
)

// TriageResult reports the static-vs-dynamic agreement experiment: the
// static candidate flags of every corpus contract scored against one
// dynamic campaign over the same corpus.
type TriageResult struct {
	// Samples is the corpus size.
	Samples int
	// Wall is the dynamic campaign's wall-clock time.
	Wall time.Duration
	// PerClass scores the static candidate flag against the dynamic oracle
	// per class: truth = the fuzzer flagged the class, flagged = the static
	// candidate was set. Recall must be 1.0 — each candidate flag is a
	// necessary condition for its oracle, so a dynamic finding without it
	// means the static pass is unsound.
	PerClass map[contractgen.Class]Counts
	// Total merges PerClass.
	Total Counts
}

// String renders the report in the style of the accuracy tables.
func (r *TriageResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static candidates: %d contracts scored against the dynamic campaign (%.2fs)\n",
		r.Samples, r.Wall.Seconds())
	fmt.Fprintf(&sb, "  %-14s %9s %9s\n", "candidates", "precision", "recall")
	row := func(label string, c Counts) {
		p, rc, _ := c.Rates()
		fmt.Fprintf(&sb, "  %-14s %9s %9s\n", label, p, rc)
	}
	for _, class := range contractgen.Classes {
		row(class.String(), r.PerClass[class])
	}
	row("overall", r.Total)
	return sb.String()
}

// EvaluateTriage fuzzes the corpus once and scores the static candidate
// flags (internal/static) against the dynamic verdicts. It is the
// evaluation the static layer is held to: the pass is measured
// (precision/recall), not just trusted.
func EvaluateTriage(ctx context.Context, ds *Dataset, cfg EvalConfig) (*TriageResult, error) {
	jobs := make([]campaign.Job, len(ds.Samples))
	fcfg := fuzz.Config{Iterations: cfg.FuzzIterations, SolverConflicts: cfg.SolverConflicts}
	for i, s := range ds.Samples {
		jobs[i] = campaign.Job{
			Name:   fmt.Sprintf("%s-%d", s.Class, s.ID),
			Module: s.Contract.Module,
			ABI:    s.Contract.ABI,
			Config: fcfg,
		}
	}
	ccfg := campaign.Config{Workers: cfg.Workers, BaseSeed: cfg.Seed}
	rep, err := campaign.Run(ctx, jobs, ccfg)
	if err != nil {
		return nil, fmt.Errorf("bench: triage: %w", err)
	}

	res := &TriageResult{
		Samples:  len(jobs),
		Wall:     rep.Wall,
		PerClass: map[contractgen.Class]Counts{},
	}
	for _, jr := range rep.Results {
		if jr.Err != nil {
			continue
		}
		srep, err := static.Analyze(jr.Job.Module)
		if err != nil {
			continue
		}
		for _, class := range contractgen.Classes {
			c := res.PerClass[class]
			c.Add(jr.Result.Report.Vulnerable[class], srep.Candidates[class])
			res.PerClass[class] = c
		}
	}
	res.Total = Total(res.PerClass)
	return res, nil
}
