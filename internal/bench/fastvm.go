package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/contractgen"
	"repro/internal/fuzz"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// fastvm.go is the decoded-IR engine experiment, run as two legs that hold
// the layer's two contracted properties to a gate at once. `wasai-bench
// -exp fastvm` exits non-zero when either fails.
//
// Leg 1 (campaign reference) fuzzes a generated corpus at several worker
// counts and requires FindingsDigest AND StateDigest byte-identical to the
// digests the tree-walking interpreter produced for the same corpus, pinned
// in fastVMReference. This is the end-to-end determinism contract: the
// decoded-IR engine may only ever change *how fast* a transaction
// executes, never which trace — and therefore which finding — the fuzzer
// observes. Corpus shapes without a pinned reference fail the leg.
//
// Leg 2 (throughput differential) drives a compute-heavy module through
// both engines directly at the exec API, counting executed instructions
// via the fuel meter (the engines consume byte-identical fuel on success,
// so one instruction count describes both runs). Wall-clock is the median
// of three legs per engine; the gate requires the decoded-IR engine to
// retire at least 2x the instructions per second of the tree-walker.

// FastVMConfig tunes the fast-engine experiment.
type FastVMConfig struct {
	// DistinctContracts is the number of distinct generated contracts in
	// the campaign leg; each is one campaign job.
	DistinctContracts int
	FuzzIterations    int
	Seed              int64
	// WorkerCounts are the pool sizes the campaign leg runs at.
	WorkerCounts []int
	// HotIters is the loop trip count of the throughput module; each
	// iteration retires a fixed instruction mix (arithmetic, locals,
	// loads, stores, branches).
	HotIters int64
	// Legs is the number of timed runs per engine (the median is used).
	Legs int
}

// DefaultFastVMConfig is the acceptance-gate shape: the campaign leg at
// the 1/4/8 worker counts the determinism suite uses, and a throughput
// module hot enough that per-run noise stays well under the 2x bar.
func DefaultFastVMConfig() FastVMConfig {
	return FastVMConfig{
		DistinctContracts: 8,
		FuzzIterations:    120,
		Seed:              5,
		WorkerCounts:      []int{1, 4, 8},
		HotIters:          400_000,
		Legs:              3,
	}
}

// FastVMWorkerRun is the campaign leg's run at one worker count.
type FastVMWorkerRun struct {
	Workers int
	// DigestMatch reports whether the run's FindingsDigest AND
	// StateDigest equal the pinned tree-walker reference.
	DigestMatch bool
	// Wall times the campaign run (reporting-only).
	Wall time.Duration
}

// fastVMShape identifies a campaign-leg corpus.
type fastVMShape struct {
	contracts, iterations int
	seed                  int64
}

// fastVMReference pins the campaign leg's digests as produced by the
// tree-walking interpreter, each the SHA-256 hex of the Report digest
// string: {FindingsDigest, StateDigest}. The first shape is `make fastvm`
// (the CLI defaults -seed 1 -iterations 240), the second
// DefaultFastVMConfig.
var fastVMReference = map[fastVMShape][2]string{
	{8, 240, 1}: {
		"45fb068e562fd50e9f24a96dc45377ce9a997398bd974173467c7a4e3e233699",
		"472d104488b1d81fa74f19543a557a7d7c6894440e247082a4f5aedb950e9e8a",
	},
	{8, 120, 5}: {
		"a8c56af78607068038b07ea85302549b8dfba13e0f4e7ca9aa22f257307782d5",
		"034b9a506421e58f709aa972e6ac1b4fd33b727d5f17cddc25ecb4bdcd5049ee",
	},
}

// FastVMThroughputLeg is the engine-level differential on the hot module.
type FastVMThroughputLeg struct {
	// Instructions is the fuel both engines consumed per invocation.
	Instructions int64
	// OffWall and OnWall are the median wall-clock times per invocation.
	OffWall, OnWall time.Duration
	// ResultsMatch reports that both engines returned the same value and
	// consumed the same fuel (a cheap differential ride-along).
	ResultsMatch bool
}

// OffIPS is the tree-walker's instructions per second.
func (l FastVMThroughputLeg) OffIPS() float64 {
	if l.OffWall <= 0 {
		return 0
	}
	return float64(l.Instructions) / l.OffWall.Seconds()
}

// OnIPS is the decoded-IR engine's instructions per second.
func (l FastVMThroughputLeg) OnIPS() float64 {
	if l.OnWall <= 0 {
		return 0
	}
	return float64(l.Instructions) / l.OnWall.Seconds()
}

// Speedup is the throughput ratio (decoded-IR over tree-walker).
func (l FastVMThroughputLeg) Speedup() float64 {
	if l.OffIPS() == 0 {
		return 0
	}
	return l.OnIPS() / l.OffIPS()
}

// FastVMResult aggregates the experiment.
type FastVMResult struct {
	Total int
	Runs  []FastVMWorkerRun
	// Pinned reports that the corpus shape has a tree-walker reference.
	Pinned bool
	// DigestMatch is true when every campaign run matched the reference.
	DigestMatch bool
	// Throughput is the engine-level leg.
	Throughput FastVMThroughputLeg
}

// Passed is the acceptance gate: the tree-walker's digests at every
// worker count, engine agreement on the hot module, and at least a 2x
// instructions-per-second advantage for the decoded-IR engine.
func (r *FastVMResult) Passed() bool {
	return r.DigestMatch && r.Throughput.ResultsMatch && r.Throughput.Speedup() >= 2.0
}

// EvaluateFastVM runs both legs: the campaign corpus at each configured
// worker count against the pinned reference (digest gate), then the hot
// module through both engines (throughput and agreement gate).
func EvaluateFastVM(cfg FastVMConfig) (*FastVMResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	contracts := make([]*contractgen.Contract, 0, cfg.DistinctContracts)
	for d := 0; d < cfg.DistinctContracts; d++ {
		class := memoClasses[d%len(memoClasses)]
		spec := contractgen.RandomSpec(class, d%2 == 0, rng)
		spec.Verification = randomVerification(rng, &spec)
		c, err := contractgen.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("bench: fastvm corpus %d: %w", d, err)
		}
		contracts = append(contracts, c)
	}
	makeJobs := func() []campaign.Job {
		jobs := make([]campaign.Job, len(contracts))
		for i, c := range contracts {
			jobs[i] = campaign.Job{
				Name:   fmt.Sprintf("fastvm-%d", i),
				Module: c.Module,
				ABI:    c.ABI,
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

	ref, pinned := fastVMReference[fastVMShape{len(contracts), cfg.FuzzIterations, cfg.Seed}]
	res := &FastVMResult{Total: len(contracts), Pinned: pinned, DigestMatch: pinned}
	for _, workers := range workerCounts {
		rep, err := campaign.Run(context.Background(), makeJobs(), campaign.Config{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("bench: fastvm campaign (workers=%d): %w", workers, err)
		}
		match := pinned && sha256Hex(rep.FindingsDigest()) == ref[0] && sha256Hex(rep.StateDigest()) == ref[1]
		if !match {
			res.DigestMatch = false
		}
		res.Runs = append(res.Runs, FastVMWorkerRun{Workers: workers, DigestMatch: match, Wall: rep.Wall})
	}

	leg, err := evaluateFastVMThroughput(cfg)
	if err != nil {
		return nil, err
	}
	res.Throughput = leg
	return res, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// hotModule builds the throughput workload: a single exported function
// looping iters times over a mix of local arithmetic, fused-shape operand
// sequences, and memory traffic — the instruction profile of a busy
// contract action, not a synthetic single-opcode spin.
func hotModule(iters int64) (*wasm.Module, error) {
	const (
		locI   = 0 // loop counter
		locAcc = 1 // accumulator (returned)
		locTmp = 2
	)
	body := []wasm.Instr{
		wasm.Loop(),
		// acc += i ^ (acc >> 3)  — mixed dependent arithmetic.
		wasm.LocalGet(locI),
		wasm.LocalGet(locAcc),
		wasm.I64Const(3),
		wasm.Op0(wasm.OpI64ShrU),
		wasm.Op0(wasm.OpI64Xor),
		wasm.LocalGet(locAcc),
		wasm.Op0(wasm.OpI64Add), // fused local.get+local.get+add shape
		wasm.LocalSet(locAcc),
		// mem[16] = acc; tmp = mem[16] * 0x9e3779b9.
		wasm.I32Const(16),
		wasm.LocalGet(locAcc),
		wasm.Store(wasm.OpI64Store, 0),
		wasm.I32Const(16),
		wasm.Load(wasm.OpI64Load, 0),
		wasm.I64Const(0x9e3779b9),
		wasm.Op0(wasm.OpI64Mul),
		wasm.LocalSet(locTmp),
		// acc ^= tmp rotated into the counter lane.
		wasm.LocalGet(locAcc),
		wasm.LocalGet(locTmp),
		wasm.I64Const(17),
		wasm.Op0(wasm.OpI64Rotl),
		wasm.Op0(wasm.OpI64Xor),
		wasm.LocalSet(locAcc),
		// i++; loop while i < iters.
		wasm.LocalGet(locI),
		wasm.I64Const(1),
		wasm.Op0(wasm.OpI64Add),
		wasm.LocalTee(locI),
		wasm.I64Const(iters),
		wasm.Op0(wasm.OpI64LtU),
		wasm.BrIf(0),
		wasm.End(),
		wasm.LocalGet(locAcc),
	}
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{
		Locals: []wasm.LocalDecl{{Count: 3, Type: wasm.I64}},
		Body:   append(body, wasm.End()),
	}}
	m.Exports = []wasm.Export{{Name: "hot", Kind: wasm.ExternalFunc, Index: 0}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("bench: hot module invalid: %v", err)
	}
	return m, nil
}

const hotFuel = int64(1) << 40

// evaluateFastVMThroughput times the hot module on both engines and
// cross-checks their results and fuel.
func evaluateFastVMThroughput(cfg FastVMConfig) (FastVMThroughputLeg, error) {
	iters := cfg.HotIters
	if iters <= 0 {
		iters = 400_000
	}
	legs := cfg.Legs
	if legs <= 0 {
		legs = 3
	}
	m, err := hotModule(iters)
	if err != nil {
		return FastVMThroughputLeg{}, err
	}

	prog := exec.Compile(m)
	run := func(fast bool) (uint64, int64, time.Duration, error) {
		inst, err := exec.Instantiate(m, nil)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: hot instantiate: %w", err)
		}
		var result uint64
		var fuel int64
		walls := make([]time.Duration, 0, legs)
		for l := 0; l < legs; l++ {
			vm := exec.NewVM(inst)
			if fast {
				vm = exec.NewFastVM(inst, prog)
			}
			vm.SetFuel(hotFuel)
			start := time.Now()
			res, err := vm.Invoke("hot")
			walls = append(walls, time.Since(start))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("bench: hot run (fast=%v): %w", fast, err)
			}
			result, fuel = res[0], hotFuel-vm.Fuel()
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		return result, fuel, walls[len(walls)/2], nil
	}

	offRes, offFuel, offWall, err := run(false)
	if err != nil {
		return FastVMThroughputLeg{}, err
	}
	onRes, onFuel, onWall, err := run(true)
	if err != nil {
		return FastVMThroughputLeg{}, err
	}
	return FastVMThroughputLeg{
		Instructions: offFuel,
		OffWall:      offWall,
		OnWall:       onWall,
		ResultsMatch: offRes == onRes && offFuel == onFuel,
	}, nil
}

// RenderFastVM prints the experiment summary.
func RenderFastVM(r *FastVMResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fastvm — decoded-IR engine against the tree-walker\n")
	fmt.Fprintf(&sb, "campaign leg (%d contracts):\n", r.Total)
	if !r.Pinned {
		fmt.Fprintf(&sb, "  no pinned tree-walker reference for this corpus shape (see fastVMReference)\n")
	}
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "  workers=%d: digests match reference=%v, wall %.2fs\n",
			run.Workers, run.DigestMatch, run.Wall.Seconds())
	}
	t := r.Throughput
	fmt.Fprintf(&sb, "throughput leg (%d instructions/run, median of runs):\n", t.Instructions)
	fmt.Fprintf(&sb, "  tree-walker %.1fM instr/s (%.1fms), decoded-IR %.1fM instr/s (%.1fms)\n",
		t.OffIPS()/1e6, float64(t.OffWall.Microseconds())/1e3,
		t.OnIPS()/1e6, float64(t.OnWall.Microseconds())/1e3)
	fmt.Fprintf(&sb, "  result+fuel agreement=%v, speedup %.2fx\n", t.ResultsMatch, t.Speedup())
	if r.Passed() {
		fmt.Fprintf(&sb, "fastvm: PASS — reference digests, engine agreement, %.2fx throughput (need ≥2x)\n", t.Speedup())
	} else {
		fmt.Fprintf(&sb, "fastvm: FAIL — reference digests=%v, agreement=%v, speedup %.2fx (need ≥2x)\n",
			r.DigestMatch, t.ResultsMatch, t.Speedup())
	}
	return sb.String()
}
