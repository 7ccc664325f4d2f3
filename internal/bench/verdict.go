package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/fuzz"
	"repro/internal/static/absint"
)

// verdict.go is the abstract-interpretation verdict-engine experiment, run
// as three legs that hold the engine's contracted properties to a gate at
// once. `wasai-bench -exp verdict` exits non-zero when any fails.
//
// Leg 1 (soundness) analyzes a generated ground-truth corpus plus a wild
// population sample and cross-checks every per-class verdict against a
// real dynamic campaign over the same contracts, in both directions: a
// proven-negative class whose dynamic oracle fires, or a proven-positive
// class whose oracle stays silent, is a soundness violation. The gate
// requires zero violations either way.
//
// Leg 2 (precision) measures how much of the wild population the engine
// decides statically, counted per non-Unknown (contract, class) verdict.
// The gate requires ≥30% of the wild verdict matrix decided; an Unknown-heavy
// analysis would make the verdict report uninformative. (Whole contracts
// resolved — every class proven negative, or any proven positive — are
// reported too.)
//
// Leg 3 (campaign determinism) fuzzes the combined corpus at several
// worker counts and requires every run's FindingsDigest and StateDigest
// byte-identical to the first run's. The verdicts are a standalone report:
// the campaign never consults them.

// VerdictConfig tunes the verdict-engine experiment.
type VerdictConfig struct {
	// WildContracts is the wild-population sample size (leg 2's
	// denominator); the ground-truth corpus adds one vulnerable and one
	// safe contract per class on top.
	WildContracts  int
	FuzzIterations int
	Seed           int64
	// WorkerCounts are the pool sizes the campaign leg runs at.
	WorkerCounts []int
}

// DefaultVerdictConfig is the acceptance-gate shape: every class in both
// ground-truth polarities, a wild sample big enough for the resolution
// ratio to be meaningful, and the 1/4/8 worker counts the determinism
// suite uses.
func DefaultVerdictConfig() VerdictConfig {
	return VerdictConfig{
		WildContracts:  20,
		FuzzIterations: 160,
		Seed:           5,
		WorkerCounts:   []int{1, 4, 8},
	}
}

// VerdictClassStats aggregates one class's verdicts over the corpus.
type VerdictClassStats struct {
	// ProvenNeg, ProvenPos and Unknown count the three verdict kinds.
	ProvenNeg, ProvenPos, Unknown int
	// NegViolations counts proven-negative verdicts whose dynamic oracle
	// fired; PosViolations proven-positive verdicts whose oracle stayed
	// silent. Both must be zero.
	NegViolations, PosViolations int
}

// VerdictWorkerRun is the campaign leg's run at one worker count.
type VerdictWorkerRun struct {
	Workers int
	// DigestMatch reports whether the run's FindingsDigest and
	// StateDigest equal the experiment-wide reference.
	DigestMatch bool
	// Wall times the campaign run (reporting-only).
	Wall time.Duration
}

// VerdictResult aggregates the experiment.
type VerdictResult struct {
	// Total is the corpus size; Wild the wild-population subset.
	// WildResolved counts wild contracts fully resolved (all classes
	// proven negative, or any proven positive); WildDecided counts the
	// non-Unknown entries of the wild (contract, class) verdict matrix.
	Total, Wild, WildResolved, WildDecided int
	// PerClass holds the verdict and violation counts per oracle class.
	PerClass map[contractgen.Class]*VerdictClassStats
	// Runs holds the per-worker-count campaign runs; DigestMatch is true
	// when every run matched the reference digests.
	Runs        []VerdictWorkerRun
	DigestMatch bool
}

// NegViolations sums the unsound-negative count over all classes.
func (r *VerdictResult) NegViolations() int {
	n := 0
	for _, s := range r.PerClass {
		n += s.NegViolations
	}
	return n
}

// PosViolations sums the unsound-positive count over all classes.
func (r *VerdictResult) PosViolations() int {
	n := 0
	for _, s := range r.PerClass {
		n += s.PosViolations
	}
	return n
}

// Resolution is the decided fraction of the wild (contract, class) verdict
// matrix: each non-Unknown verdict is a class the static report decides.
func (r *VerdictResult) Resolution() float64 {
	if r.Wild == 0 {
		return 0
	}
	return float64(r.WildDecided) / float64(r.Wild*len(contractgen.Classes))
}

// Passed is the acceptance gate: zero soundness violations in both
// directions, ≥30% wild resolution, and byte-identical digests at every
// worker count.
func (r *VerdictResult) Passed() bool {
	return r.DigestMatch && r.NegViolations() == 0 && r.PosViolations() == 0 &&
		r.Resolution() >= 0.30
}

// EvaluateVerdict runs all three legs over one combined corpus.
func EvaluateVerdict(cfg VerdictConfig) (*VerdictResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Corpus: the full ground-truth sweep (every class, both polarities),
	// then the wild sample.
	type sample struct {
		name     string
		contract *contractgen.Contract
		wild     bool
	}
	var samples []sample
	for _, class := range contractgen.Classes {
		for _, vul := range []bool{true, false} {
			c, err := contractgen.Generate(contractgen.Spec{Class: class, Vulnerable: vul, Seed: cfg.Seed})
			if err != nil {
				return nil, fmt.Errorf("bench: verdict ground truth %v/%v: %w", class, vul, err)
			}
			samples = append(samples, sample{name: fmt.Sprintf("gt-%s-%v", class, vul), contract: c})
		}
	}
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(cfg.WildContracts), rng)
	if err != nil {
		return nil, fmt.Errorf("bench: verdict wild corpus: %w", err)
	}
	for _, w := range wild {
		samples = append(samples, sample{name: "wild-" + w.Name.String(), contract: w.Contract, wild: true})
	}

	res := &VerdictResult{
		Total:       len(samples),
		PerClass:    map[contractgen.Class]*VerdictClassStats{},
		DigestMatch: true,
	}
	for _, class := range contractgen.Classes {
		res.PerClass[class] = &VerdictClassStats{}
	}

	// Static pass: one verdict report per contract (legs 1 and 2 read it).
	reports := make([]*absint.Report, len(samples))
	for i, s := range samples {
		var actions []eos.Name
		for _, act := range s.contract.ABI.Actions {
			actions = append(actions, act.Name)
		}
		reports[i] = absint.Analyze(s.contract.Module, actions)
		for _, class := range contractgen.Classes {
			switch reports[i].Verdicts[class].Kind {
			case absint.ProvenNegative:
				res.PerClass[class].ProvenNeg++
			case absint.ProvenPositive:
				res.PerClass[class].ProvenPos++
			default:
				res.PerClass[class].Unknown++
			}
		}
		if s.wild {
			res.Wild++
			if reports[i].AllNegative() || reports[i].AnyPositive() {
				res.WildResolved++
			}
			for _, class := range contractgen.Classes {
				if reports[i].Verdicts[class].Kind != absint.Unknown {
					res.WildDecided++
				}
			}
		}
	}

	makeJobs := func() []campaign.Job {
		jobs := make([]campaign.Job, len(samples))
		for i, s := range samples {
			jobs[i] = campaign.Job{
				Name:   s.name,
				Module: s.contract.Module,
				ABI:    s.contract.ABI,
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

	var refFindings, refState string
	for i, workers := range workerCounts {
		run, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench: verdict campaign (workers=%d): %w", workers, err)
		}
		if i == 0 {
			refFindings, refState = run.FindingsDigest(), run.StateDigest()
			// Soundness leg: the first dynamic run is the oracle reference.
			for j, jr := range run.Results {
				if jr.Err != nil {
					return nil, fmt.Errorf("bench: verdict job %q: %w", jr.Job.Name, jr.Err)
				}
				for _, class := range contractgen.Classes {
					dyn := jr.Result.Report.Vulnerable[class]
					switch reports[j].Verdicts[class].Kind {
					case absint.ProvenNegative:
						if dyn {
							res.PerClass[class].NegViolations++
						}
					case absint.ProvenPositive:
						if !dyn {
							res.PerClass[class].PosViolations++
						}
					}
				}
			}
		}
		match := run.FindingsDigest() == refFindings && run.StateDigest() == refState
		if !match {
			res.DigestMatch = false
		}
		res.Runs = append(res.Runs, VerdictWorkerRun{Workers: workers, DigestMatch: match, Wall: run.Wall})
	}
	return res, nil
}

// RenderVerdict prints the experiment summary.
func RenderVerdict(r *VerdictResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdict — abstract-interpretation verdict engine\n")
	fmt.Fprintf(&sb, "soundness leg (%d contracts, %d wild):\n", r.Total, r.Wild)
	for _, class := range contractgen.Classes {
		s := r.PerClass[class]
		fmt.Fprintf(&sb, "  %-14s neg=%-3d pos=%-3d unknown=%-3d violations neg=%d pos=%d\n",
			class, s.ProvenNeg, s.ProvenPos, s.Unknown, s.NegViolations, s.PosViolations)
	}
	fmt.Fprintf(&sb, "precision leg: %d/%d wild (contract, class) verdicts decided (%.0f%%, need ≥30%%); %d/%d contracts fully resolved\n",
		r.WildDecided, r.Wild*len(contractgen.Classes), 100*r.Resolution(), r.WildResolved, r.Wild)
	fmt.Fprintf(&sb, "campaign leg:\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "  workers=%d: digests identical=%v, wall %.2fs\n",
			run.Workers, run.DigestMatch, run.Wall.Seconds())
	}
	if r.Passed() {
		fmt.Fprintf(&sb, "verdict: PASS — zero soundness violations, %.0f%% wild resolution, byte-identical digests\n",
			100*r.Resolution())
	} else {
		fmt.Fprintf(&sb, "verdict: FAIL — violations neg=%d pos=%d, resolution %.0f%% (need ≥30%%), digests identical=%v\n",
			r.NegViolations(), r.PosViolations(), 100*r.Resolution(), r.DigestMatch)
	}
	return sb.String()
}
