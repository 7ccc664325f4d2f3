package wasai_test

import (
	"context"
	"fmt"
	"testing"

	wasai "repro"
	"repro/internal/contractgen"
	"repro/internal/wasm"
)

// TestAnalyzeStatic checks the public pre-analysis facade end to end: a
// generated vulnerable contract carries its class candidate, the trivial
// contract carries none.
func TestAnalyzeStatic(t *testing.T) {
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: true, Seed: int64(60 + i),
		})
		if err != nil {
			t.Fatalf("generate %s: %v", class, err)
		}
		bin, err := wasm.Encode(c.Module)
		if err != nil {
			t.Fatalf("encode %s: %v", class, err)
		}
		rep, err := wasai.AnalyzeStatic(bin)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		found := false
		for _, cand := range rep.Candidates {
			if cand.Class == class.String() {
				found = true
				if !cand.Candidate {
					t.Errorf("%s: vulnerable contract lacks its candidate flag", class)
				}
			}
		}
		if !found {
			t.Errorf("%s: class missing from candidates: %+v", class, rep.Candidates)
		}
		if !rep.AnyCandidate() {
			t.Errorf("%s: AnyCandidate() = false", class)
		}
	}

	trivial := contractgen.Trivial()
	rep, err := wasai.AnalyzeStaticModule(trivial.Module)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnyCandidate() {
		t.Errorf("trivial contract has candidates: %+v", rep.Candidates)
	}
}

// TestBatchStaticTriage checks the static report as a triage aid for a
// batch: every class a batch campaign flags carries its static candidate
// flag (a clear flag is a proof the oracle cannot fire), and the trivial
// contracts, which a caller could triage out by hand, carry none and come
// back clean from the campaign that fuzzes them anyway.
func TestBatchStaticTriage(t *testing.T) {
	var jobs []wasai.BatchJob
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: i%2 == 0, Seed: int64(80 + i),
		})
		if err != nil {
			t.Fatalf("generate %s: %v", class, err)
		}
		jobs = append(jobs, wasai.BatchJob{
			Name: fmt.Sprintf("%s-%d", class, i), Module: c.Module, ABI: c.ABI,
		})
	}
	for i := 0; i < 3; i++ {
		c := contractgen.Trivial()
		jobs = append(jobs, wasai.BatchJob{
			Name: fmt.Sprintf("trivial-%d", i), Module: c.Module, ABI: c.ABI,
		})
	}

	cfg := wasai.DefaultBatchConfig()
	cfg.Iterations = 30
	cfg.Workers = 4
	rep, err := wasai.AnalyzeBatch(context.Background(), jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for i, br := range rep.Jobs {
		if br.Err != nil {
			t.Fatalf("job %d (%s): %v", i, br.Name, br.Err)
		}
		srep, err := wasai.AnalyzeStaticModule(jobs[i].Module)
		if err != nil {
			t.Fatalf("job %d (%s): static: %v", i, br.Name, err)
		}
		candidate := map[string]bool{}
		for _, c := range srep.Candidates {
			candidate[c.Class] = c.Candidate
		}
		for _, f := range br.Report.Findings {
			if !f.Vulnerable {
				continue
			}
			flagged++
			if !candidate[f.Class] {
				t.Errorf("job %d (%s): flagged %s without its static candidate flag", i, br.Name, f.Class)
			}
		}
		if i >= len(contractgen.Classes) && (srep.AnyCandidate() || br.Report.Vulnerable()) {
			t.Errorf("trivial job %d: candidates=%v vulnerable=%v, want neither", i, srep.AnyCandidate(), br.Report.Vulnerable())
		}
	}
	if flagged == 0 {
		t.Error("the batch flagged nothing: the candidate check is vacuous")
	}
}
