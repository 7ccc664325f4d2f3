package stage

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	wasai "repro"
	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// countingBackend is the default EOSIO personality with a counter on
// HostEnv, which the chain calls once per instantiation (every apply of a
// Wasm contract, plus the link check at deployment). It changes no
// behaviour, so findings stay byte-identical.
type countingBackend struct {
	chain.Backend
	n *atomic.Int64
}

func (b countingBackend) HostEnv(bc *chain.Blockchain) exec.HostModule {
	b.n.Add(1)
	return b.Backend.HostEnv(bc)
}

// FuzzConfig is the per-contract configuration the facade derives from the
// library defaults (wasai.DefaultConfig) for a batch job.
type FuzzConfig struct {
	Iterations      int
	SolverConflicts int64
	Feedback        bool
	Seed            int64
}

// FuzzOutcome is one contract run on the real code path.
type FuzzOutcome struct {
	Module         *wasm.Module
	ABI            *abi.ABI
	Report         *wasai.Report
	Result         *fuzz.Result
	Instantiations int64
}

// Fuzz runs one contract the way a campaign job does — decode + validate +
// ABI parse, fuzz.New, RunPhase, Finish — recording the four phases as
// spans.
func Fuzz(ctx context.Context, bin, abiJSON []byte, cfg FuzzConfig, obs Observer) (*FuzzOutcome, error) {
	out := &FuzzOutcome{}
	start := time.Now()
	m, err := wasm.Decode(bin)
	if err == nil {
		err = wasm.Validate(m)
	}
	var contractABI abi.ABI
	if err == nil {
		err = json.Unmarshal(abiJSON, &contractABI)
	}
	obs("wasm.decode", start, time.Now())
	if err != nil {
		return nil, fmt.Errorf("stage: decode: %w", err)
	}
	out.Module, out.ABI = m, &contractABI

	var n atomic.Int64
	start = time.Now()
	f, err := fuzz.New(m, &contractABI, fuzz.Config{
		Iterations:      cfg.Iterations,
		SolverConflicts: cfg.SolverConflicts,
		DisableFeedback: !cfg.Feedback,
		Seed:            cfg.Seed,
		Backend:         countingBackend{Backend: chain.EOSIO(), n: &n},
	})
	obs("fuzz.new", start, time.Now())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	_, err = f.RunPhase(ctx)
	obs("fuzz.loop", start, time.Now())
	if err != nil {
		return nil, err
	}
	start = time.Now()
	res, err := f.Finish(ctx)
	obs("fuzz.finish", start, time.Now())
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.Instantiations = n.Load()
	out.Report = &wasai.Report{Coverage: res.Coverage, AdaptiveSeeds: res.AdaptiveSeeds, Iterations: res.Iterations}
	for _, class := range contractgen.Classes {
		out.Report.Findings = append(out.Report.Findings, wasai.Finding{
			Class:      class.String(),
			Vulnerable: res.Report.Vulnerable[class],
		})
	}
	return out, nil
}
