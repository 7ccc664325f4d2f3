package bench

import "testing"

// TestEvaluateFastVMReference runs the campaign leg at DefaultFastVMConfig's
// pinned shape (a small hot module keeps the throughput leg quick; its
// speedup is not asserted here, only result and fuel agreement) and an
// unpinned shape, which must fail the leg rather than pass unchecked.
func TestEvaluateFastVMReference(t *testing.T) {
	cfg := DefaultFastVMConfig()
	cfg.WorkerCounts = []int{1, 4}
	cfg.HotIters, cfg.Legs = 1_000, 1
	res, err := EvaluateFastVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pinned || !res.DigestMatch || !res.Throughput.ResultsMatch {
		t.Fatalf("pinned shape: pinned=%v digests=%v agreement=%v\n%s",
			res.Pinned, res.DigestMatch, res.Throughput.ResultsMatch, RenderFastVM(res))
	}

	cfg.Seed++
	cfg.WorkerCounts = []int{1}
	res, err = EvaluateFastVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned || res.DigestMatch || res.Passed() {
		t.Fatalf("unpinned shape passed the reference leg: pinned=%v digests=%v", res.Pinned, res.DigestMatch)
	}
}
