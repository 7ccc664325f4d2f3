package bench

import (
	"context"
	"testing"
)

// TestEvaluateTriage smoke-runs the static-vs-dynamic agreement experiment
// at a small scale and asserts its load-bearing property: the candidate
// flags are sound (zero false negatives against the dynamic verdicts — a
// dynamic finding whose class had no candidate flag would mean the static
// pass missed a real bug).
func TestEvaluateTriage(t *testing.T) {
	ds, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEvalConfig()
	cfg.FuzzIterations = 30
	cfg.Workers = 4
	cfg.Seed = 5
	res, err := EvaluateTriage(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != len(ds.Samples) {
		t.Errorf("samples = %d, want %d", res.Samples, len(ds.Samples))
	}
	for class, c := range res.PerClass {
		if c.FN > 0 {
			t.Errorf("%s: %d dynamic findings lacked the static candidate flag (unsound)", class, c.FN)
		}
	}
	if s := res.String(); s == "" {
		t.Error("empty render")
	}
}
