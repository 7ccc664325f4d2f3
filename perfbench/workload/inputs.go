// Package workload generates the benchmark's inputs and runs its timed
// workloads. The timed runs reach the program only through the public
// facade (wasai.NewCampaign / Submit / Wait with binary + ABI JSON) and
// through the daemon's HTTP/JSON interface; the internal packages imported
// here only generate inputs (contractgen, bench) or start the daemon
// in-process (serve.New + Handler).
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/contractgen"
	"repro/internal/wasm"
)

// Workload names.
const (
	WildSweep     = "wild-sweep"
	BlackboxSweep = "blackbox-sweep"
	DaemonMix     = "daemon-mix"
)

// Names lists every workload in BENCHMARK.json order.
var Names = []string{WildSweep, BlackboxSweep, DaemonMix}

// Contract is one generated input: the binary and ABI JSON the facade
// takes, plus the generator's ground truth for scoring.
type Contract struct {
	Name    string
	Wasm    []byte
	ABIJSON []byte
	// Truth maps each scored class name to its ground-truth verdict.
	Truth map[string]bool
}

// Sweep population sizes. A pass is one campaign over a fresh population;
// the sizes keep a pass near 1.5-2 s on a 2-core machine, so a run holds
// a dozen passes (set-up samples) while the idle tail at the end of each
// pass stays a small share of it.
const (
	wildPassSize = 64
	// blackboxScale draws 142 samples from the Table-4 per-class counts
	// (3,340 at scale 1).
	blackboxScale = 0.04
)

// PassSeed derives the population seed of sweep pass k from the workload
// seed. Every pass draws a fresh population, so nothing a pass computes
// can be reused by a later one the way a repeated input would allow.
func PassSeed(seed int64, pass int) int64 { return seed*1000 + int64(pass) + 1 }

// WildPopulation draws n contracts of the RQ4 wild population.
func WildPopulation(seed int64, n int) ([]Contract, error) {
	pop, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(n), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	out := make([]Contract, len(pop))
	for i, wc := range pop {
		truth := map[string]bool{}
		for cl, v := range wc.Truth {
			truth[cl.String()] = v
		}
		c, err := encode(wc.Name.String(), wc.Contract, truth)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// GroundTruthPopulation draws a seeded subsample of the §4.2 Table-4
// ground-truth corpus (balanced vulnerable/safe halves per class) in a
// seeded order. Each sample is scored on its own class only.
func GroundTruthPopulation(seed int64, scale float64) ([]Contract, error) {
	ds, err := bench.BuildGroundTruth(bench.Table4Counts, bench.Options{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]Contract, len(ds.Samples))
	for i, s := range ds.Samples {
		c, err := encode(fmt.Sprintf("gt%d", s.ID), s.Contract, map[string]bool{s.Class.String(): s.Truth})
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// SweepPass returns the population of one sweep pass.
func SweepPass(workload string, passSeed int64, size int) ([]Contract, error) {
	switch workload {
	case WildSweep:
		if size <= 0 {
			size = wildPassSize
		}
		return WildPopulation(passSeed, size)
	case BlackboxSweep:
		pop, err := GroundTruthPopulation(passSeed, blackboxScale)
		if err != nil {
			return nil, err
		}
		if size > 0 && size < len(pop) {
			pop = pop[:size]
		}
		return pop, nil
	}
	return nil, fmt.Errorf("workload %q is not a sweep", workload)
}

// Feedback reports whether the workload runs with the symbolic feedback
// loop (the blackbox sweep is the paper's black-box ablation).
func Feedback(workload string) bool { return workload != BlackboxSweep }

func encode(name string, c *contractgen.Contract, truth map[string]bool) (Contract, error) {
	bin, err := wasm.Encode(c.Module)
	if err != nil {
		return Contract{}, fmt.Errorf("encode %s: %w", name, err)
	}
	abiJSON, err := json.Marshal(c.ABI)
	if err != nil {
		return Contract{}, fmt.Errorf("encode %s abi: %w", name, err)
	}
	return Contract{Name: name, Wasm: bin, ABIJSON: abiJSON, Truth: truth}, nil
}
