package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

// engineShape identifies a reference campaign corpus: the number of
// generated contracts, fuzz iterations per contract and the corpus seed.
type engineShape struct {
	contracts, iterations int
	seed                  int64
}

// engineReference pins the campaign digests the tree-walking interpreter
// produced for each corpus shape, each the SHA-256 hex of the Report
// digest string: {FindingsDigest, StateDigest}. The decoded-IR engine may
// only change how fast a transaction executes, never which trace — and
// so which finding — the fuzzer observes.
var engineReference = []struct {
	shape engineShape
	want  [2]string
}{
	{engineShape{8, 240, 1}, [2]string{
		"45fb068e562fd50e9f24a96dc45377ce9a997398bd974173467c7a4e3e233699",
		"472d104488b1d81fa74f19543a557a7d7c6894440e247082a4f5aedb950e9e8a",
	}},
	{engineShape{8, 120, 5}, [2]string{
		"a8c56af78607068038b07ea85302549b8dfba13e0f4e7ca9aa22f257307782d5",
		"034b9a506421e58f709aa972e6ac1b4fd33b727d5f17cddc25ecb4bdcd5049ee",
	}},
}

// engineJobs builds the reference corpus of one shape: generated
// contracts cycling through memoClasses, alternately vulnerable, each
// behind randomly drawn verification checks.
func engineJobs(t *testing.T, s engineShape) []campaign.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	jobs := make([]campaign.Job, s.contracts)
	for d := range jobs {
		spec := contractgen.RandomSpec(memoClasses[d%len(memoClasses)], d%2 == 0, rng)
		spec.Verification = randomVerification(rng, &spec)
		c, err := contractgen.Generate(spec)
		if err != nil {
			t.Fatalf("corpus %d: %v", d, err)
		}
		jobs[d] = campaign.Job{
			Name:   fmt.Sprintf("fastvm-%d", d), // job names are part of the pinned digests
			Module: c.Module,
			ABI:    c.ABI,
			Config: fuzz.Config{Iterations: s.iterations, SolverConflicts: 50_000, Seed: s.seed + int64(d)},
		}
	}
	return jobs
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestEngineReferenceDigests fuzzes each pinned corpus at 1, 4 and 8
// workers and requires FindingsDigest and StateDigest byte-identical to
// the tree-walker's.
func TestEngineReferenceDigests(t *testing.T) {
	for _, ref := range engineReference {
		for _, workers := range []int{1, 4, 8} {
			rep, err := campaign.Run(context.Background(), engineJobs(t, ref.shape), campaign.Config{Workers: workers})
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", ref.shape, workers, err)
			}
			got := [2]string{sha256Hex(rep.FindingsDigest()), sha256Hex(rep.StateDigest())}
			if got != ref.want {
				t.Errorf("%+v workers=%d: digests %v, want the tree-walker's %v", ref.shape, workers, got, ref.want)
			}
		}
	}
}
