package fuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/instrument"
	"repro/internal/scanner"
	"repro/internal/schedule"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
)

// Well-known campaign accounts.
var (
	attackerName  = eos.MustName("attacker")
	fakeTokenName = eos.MustName("fake.token")
	agentName     = eos.MustName("fake.notif")
	victimName    = eos.MustName("victim")
)

// Config tunes a fuzzing campaign.
type Config struct {
	// Iterations is the transaction budget (the deterministic analogue of
	// the paper's 5-minute timeout).
	Iterations int
	// SolverConflicts bounds each SMT query (analogue of the 3,000 ms cap).
	SolverConflicts int64
	// DisableFeedback turns off the Symback loop (ablation: pure black-box).
	DisableFeedback bool
	// DisableDBG turns off transaction-dependency seed selection (ablation).
	DisableDBG bool
	// OpaqueInputs disables §3.4.2 input inference in the replay (ablation:
	// path constraints lose their mapping to the transaction payload).
	OpaqueInputs bool
	// Seed drives all randomness.
	Seed int64
	// CustomDetectors registers extension oracles (paper §5): each observes
	// every target trace and contributes a named verdict to the result.
	CustomDetectors []scanner.CustomDetector
	// KeepTraces retains every target trace in the result, for export to
	// the paper's offline trace files (trace.Write).
	KeepTraces bool
	// Fuel overrides the per-action instruction budget of the campaign
	// chain (0 keeps the chain default).
	Fuel int64
	// Faults, when non-nil, injects the planned fault into the campaign
	// chain's host API and the solver pool (see internal/faultinject). A
	// transaction error chaining to faultinject.ErrInjected escalates to a
	// campaign failure — ordinary contract reverts are fuzzing signal and
	// never do.
	Faults *faultinject.Injector
	// Memo is the cross-job solver-query cache consulted before DPLL
	// (see internal/memo; nil disables memoization). The solver pool
	// ignores it whenever Faults is non-nil, so faulted attempts can
	// neither poison nor be served from a shared cache.
	Memo symbolic.SolverMemo
	// Incremental enables the prefix-sharing solver pre-pass for the
	// adaptive-seed flip queries (see symbolic.PoolOptions.Incremental).
	// Findings are byte-identical on/off; the flag only trades solver
	// work. Ignored on faulted attempts, like Memo.
	Incremental bool
	// Backend selects the chain personality (host-API surface, bootstrap
	// accounts, API classification) the campaign and scenario chains run
	// on. Nil means chain.EOSIO(), the default personality.
	Backend chain.Backend
	// Adaptive replaces the fixed round-robin schedule with the
	// coverage-driven power schedule of internal/schedule: payload arms and
	// queued seeds carry energies updated from coverage deltas, DBG
	// writer→reader pairs become composite arms, and the loop stops early
	// at saturation (no new coverage over SaturationWindow iterations) so
	// the campaign fuel ledger can reallocate the unspent budget. Every
	// decision is a pure function of (seed, observed coverage), so adaptive
	// runs stay reproducible; Adaptive=false is byte-identical to the
	// historical schedule.
	Adaptive bool
	// SaturationWindow is the adaptive saturation horizon in iterations
	// (0 means DefaultSaturationWindow). Ignored unless Adaptive.
	SaturationWindow int
}

// DefaultSaturationWindow is the default adaptive saturation horizon: a job
// with no new branch over this many consecutive iterations stops and
// returns its remaining fuel. A multiple of the schedule length, so every
// payload kind gets several shots before the job is declared saturated.
const DefaultSaturationWindow = 48

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{Iterations: 240, SolverConflicts: 50_000, Seed: 1}
}

// CoveragePoint samples cumulative distinct-branch coverage (RQ1's unit).
type CoveragePoint struct {
	Iteration int
	Branches  int
}

// Result summarizes a campaign.
type Result struct {
	Report           *scanner.Report
	Coverage         int
	CoverageOverTime []CoveragePoint
	Iterations       int
	// AdaptiveSeeds counts seeds produced by constraint solving.
	AdaptiveSeeds int
	// ReplayErrors counts traces Symback could not replay.
	ReplayErrors int
	SolverStats  symbolic.SolverStats
	// Custom holds the verdicts of registered extension detectors.
	Custom map[string]bool
	// Traces holds the target's traces when Config.KeepTraces is set.
	Traces []trace.Trace
	// Sched holds the adaptive scheduler's counters (zero when Adaptive
	// is off). Reporting-only: excluded from findings digests, included in
	// the campaign state digest like coverage.
	Sched schedule.Counters
	// Saturated reports that the adaptive loop stopped early for lack of
	// new coverage.
	Saturated bool
}

// ExpandCoverage reconstructs the dense per-iteration coverage series from
// the change-point encoding of CoverageOverTime: the value at iteration i
// (1-based) is the latest recorded point at or before i, zero before the
// first point. This is exactly the series the fuzzer used to record
// eagerly, so consumers plotting coverage curves stay equivalent.
func ExpandCoverage(points []CoveragePoint, iterations int) []int {
	dense := make([]int, iterations)
	cur, pi := 0, 0
	for i := 1; i <= iterations; i++ {
		for pi < len(points) && points[pi].Iteration <= i {
			cur = points[pi].Branches
			pi++
		}
		dense[i-1] = cur
	}
	return dense
}

// Fuzzer is the WASAI engine bound to one target contract.
type Fuzzer struct {
	cfg     Config
	mod     *wasm.Module // original (pre-instrumentation) module
	instr   *instrument.Result
	abi     *abi.ABI
	bc      *chain.Blockchain
	scan    *scanner.Scanner
	rng     *rand.Rand
	solver  *symbolic.Solver
	dbg     *DBG
	seeds   *pool
	actions []eos.Name

	ctx context.Context // the campaign context while RunContext is active

	coverage  map[trace.BranchKey]struct{}
	attempted map[symexec.BranchTarget]bool
	covSeries []CoveragePoint
	adaptive  int
	replayErr int
	iter      int

	// Phase/adaptive state (see RunPhase): the iteration budget grows via
	// ContinuePhase grants, the planner drives arm selection when
	// Config.Adaptive, and lastSeed/seedUpdates carry the served seed slot
	// from step to the energy update after it.
	budget      int
	started     bool
	finished    bool
	saturated   bool
	lastGain    int
	planner     *schedule.Planner
	arms        []scheduleEntry
	seedUpdates int
	lastSeed    seedRef

	lastRevertRead map[eos.Name]chain.DBOp // action -> the failing read (table + key)
	kept           []trace.Trace
}

// seedRef points at the queue slot a step served, so the adaptive loop can
// feed the step's coverage outcome back into that seed's energy.
type seedRef struct {
	q   *seedQueue
	pos int
	gen uint32
	ok  bool
}

// New prepares a campaign against the contract `mod` with its ABI: it
// instruments the bytecode (§3.3.1), initiates a local blockchain with the
// auxiliary contracts of Algorithm 1 line 2 (eosio.token, the counterfeit
// token, the notification-forwarding agent), and funds the accounts.
func New(mod *wasm.Module, contractABI *abi.ABI, cfg Config) (*Fuzzer, error) {
	res, err := instrument.Instrument(mod, instrument.ModeSparse)
	if err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: instrument: %w", err))
	}
	backend := cfg.Backend
	if backend == nil {
		backend = chain.EOSIO()
	}
	bc := chain.NewWithBackend(backend)
	bc.Collector = trace.NewCollector()
	if cfg.Fuel > 0 {
		bc.Fuel = cfg.Fuel
	}
	if err := bc.DeployModule(victimName, res.Module, contractABI, res.Sites); err != nil {
		return nil, failure.Wrap(failure.Decode, fmt.Errorf("fuzz: deploy target: %w", err))
	}
	// Arm fault injection only after deployment: the faults model runtime
	// host failures, not broken setup.
	bc.Faults = cfg.Faults
	bc.DeployNative(fakeTokenName, &chain.TokenContract{Issuer: fakeTokenName, Sym: eos.EOSSymbol}, abi.TransferABI())
	bc.DeployNative(agentName, &chain.ForwarderAgent{Victim: victimName}, nil)
	bc.CreateAccount(attackerName)
	if err := bc.Issue(eos.TokenContract, attackerName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund attacker: %w", err)
	}
	// "We allocate some EOS tokens to the fuzzing target" (§4.4).
	if err := bc.Issue(eos.TokenContract, victimName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund target: %w", err)
	}
	if err := bc.Issue(fakeTokenName, attackerName, eos.EOS(1_000_000_000_000)); err != nil {
		return nil, fmt.Errorf("fuzz: fund attacker with counterfeit EOS: %w", err)
	}

	f := &Fuzzer{
		cfg:            cfg,
		mod:            mod,
		instr:          res,
		abi:            contractABI,
		bc:             bc,
		scan:           scanner.New(mod, victimName),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		solver:         &symbolic.Solver{MaxConflicts: cfg.SolverConflicts},
		dbg:            NewDBG(),
		seeds:          newPool(),
		coverage:       map[trace.BranchKey]struct{}{},
		attempted:      map[symexec.BranchTarget]bool{},
		lastRevertRead: map[eos.Name]chain.DBOp{},
	}
	for _, act := range contractABI.Actions {
		f.actions = append(f.actions, act.Name)
	}
	for _, d := range cfg.CustomDetectors {
		f.scan.AddCustom(d)
	}
	// Algorithm 1 line 2: fill seeds with random data.
	wellKnown := []eos.Name{attackerName, victimName, agentName, eos.MustName("bob")}
	for _, act := range f.actions {
		for i := 0; i < 4; i++ {
			f.seeds.queue(act).push(Seed{Action: act, Params: randomParams(f.rng, wellKnown)})
		}
	}
	return f, nil
}

// Chain exposes the campaign blockchain (examples inspect balances).
func (f *Fuzzer) Chain() *chain.Blockchain { return f.bc }

// payloadKind enumerates the transaction shapes Engine schedules: the
// adversary-oracle payloads of §2.3 plus direct action fuzzing.
type payloadKind int

const (
	payloadValidTransfer  payloadKind = iota + 1 // genuine EOS to the target
	payloadDirectFake                            // invoke eosponser directly
	payloadFakeToken                             // counterfeit EOS via fake.token
	payloadForwardedNotif                        // real EOS through fake.notif
	payloadDirectAction                          // invoke a non-transfer action
	payloadComposite                             // DBG writer→reader pair (adaptive only)
)

// Run executes the Algorithm 1 fuzzing loop for the configured budget and
// returns the campaign result.
func (f *Fuzzer) Run() (*Result, error) {
	return f.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// between iterations (each iteration is already bounded by the chain's fuel
// budget), so a per-job deadline interrupts even a contract that spins the
// interpreter on every transaction. On cancellation the context's error is
// returned and the partial campaign is discarded.
func (f *Fuzzer) RunContext(ctx context.Context) (*Result, error) {
	if _, err := f.RunPhase(ctx); err != nil {
		return nil, err
	}
	return f.Finish(ctx)
}

// PhaseReport summarises a fuzzing phase for the campaign fuel ledger.
type PhaseReport struct {
	// Saturated reports the adaptive early stop (no new coverage over the
	// saturation window).
	Saturated bool
	// Iterations is the iteration count executed so far.
	Iterations int
	// Coverage is the distinct-branch count so far.
	Coverage int
	// FuelUnspent is the budget the phase left unexecuted (saturation).
	FuelUnspent int
}

// RunPhase executes the Algorithm 1 fuzzing loop for the configured budget
// — the whole budget when Adaptive is off, or until saturation when on —
// and reports what it spent. The campaign may then grant extra budget with
// ContinuePhase; Finish runs the scenario pass and builds the Result.
func (f *Fuzzer) RunPhase(ctx context.Context) (PhaseReport, error) {
	if !f.started {
		f.started = true
		f.budget = f.cfg.Iterations
		f.arms = f.buildSchedule()
		if f.cfg.Adaptive {
			f.planner = schedule.NewPlanner()
			for _, e := range f.arms {
				f.planner.AddArm(int(e.kind), uint64(e.action), uint64(e.writer), schedule.BaseEnergy)
			}
		}
	}
	if err := f.runLoop(ctx); err != nil {
		return PhaseReport{}, err
	}
	return f.phaseReport(), nil
}

// ContinuePhase extends the iteration budget by a fuel-ledger grant and
// resumes the loop: the fuzzer keeps its coverage, seed energies, DBG and
// scanner state, so the extra fuel continues the same campaign rather than
// restarting one. A phase-2 saturation just leaves the remainder unspent.
func (f *Fuzzer) ContinuePhase(ctx context.Context, extra int) (PhaseReport, error) {
	f.budget += extra
	f.saturated = false
	// Grant a fresh saturation window measured from here, not from the
	// last gain: the grant is a deliberate second chance.
	f.lastGain = f.iter
	if err := f.runLoop(ctx); err != nil {
		return PhaseReport{}, err
	}
	return f.phaseReport(), nil
}

func (f *Fuzzer) phaseReport() PhaseReport {
	return PhaseReport{
		Saturated:   f.saturated,
		Iterations:  f.iter,
		Coverage:    len(f.coverage),
		FuelUnspent: f.budget - f.iter,
	}
}

// runLoop spends budgeted iterations. Adaptive=off walks the fixed
// round-robin exactly as before; Adaptive=on draws arms from the power
// schedule and feeds coverage deltas back into arm and seed energies.
func (f *Fuzzer) runLoop(ctx context.Context) error {
	f.ctx = ctx
	defer func() { f.ctx = nil }()
	window := f.cfg.SaturationWindow
	if window <= 0 {
		window = DefaultSaturationWindow
	}
	for ; f.iter < f.budget; f.iter++ {
		if err := ctx.Err(); err != nil {
			return failure.Wrap(failure.Timeout, err)
		}
		if f.cfg.Adaptive && f.iter-f.lastGain >= window {
			f.saturated = true
			f.planner.SaturationSkipped(f.budget - f.iter)
			break
		}
		before := len(f.coverage)
		if f.cfg.Adaptive {
			arm := f.planner.Next()
			entry := f.arms[arm]
			if err := f.stepArm(entry); err != nil {
				return err
			}
			gained := len(f.coverage) > before
			f.planner.Observe(arm, gained)
			if f.lastSeed.ok {
				f.seedUpdates += f.lastSeed.q.observe(f.lastSeed.pos, f.lastSeed.gen, gained)
				f.lastSeed = seedRef{}
			}
		} else {
			entry := f.arms[f.iter%len(f.arms)]
			if err := f.step(entry.kind, entry.action); err != nil {
				return err
			}
		}
		if len(f.coverage) > before {
			f.lastGain = f.iter
		}
		// Change-point coverage recording: O(distinct deltas) memory
		// instead of O(iterations); ExpandCoverage reconstructs the dense
		// series for curve consumers.
		if len(f.coverage) != before {
			f.covSeries = append(f.covSeries, CoveragePoint{Iteration: f.iter + 1, Branches: len(f.coverage)})
		}
	}
	return nil
}

// Finish runs the on-chain-data scenario pass (WACANA's multi-transaction
// families: deterministic replays on fresh chains, feeding only the
// scenario oracles — the concolic loop's verdicts are already final) and
// assembles the campaign Result.
func (f *Fuzzer) Finish(ctx context.Context) (*Result, error) {
	if f.finished {
		return nil, fmt.Errorf("fuzz: Finish called twice") //wasai:rawerr API-misuse guard, never reached by the drivers
	}
	f.finished = true
	// Close the change-point series with a final sample so the series
	// records how long the campaign ran.
	if n := len(f.covSeries); f.iter > 0 && (n == 0 || f.covSeries[n-1].Iteration != f.iter) {
		f.covSeries = append(f.covSeries, CoveragePoint{Iteration: f.iter, Branches: len(f.coverage)})
	}
	if err := f.runScenarios(ctx); err != nil {
		return nil, err
	}
	var sched schedule.Counters
	if f.planner != nil {
		sched = f.planner.Counters()
		sched.EnergyUpdates += f.seedUpdates
	}
	return &Result{
		Report:           f.scan.Report(),
		Coverage:         len(f.coverage),
		CoverageOverTime: f.covSeries,
		Iterations:       f.iter,
		AdaptiveSeeds:    f.adaptive,
		ReplayErrors:     f.replayErr,
		SolverStats:      f.solver.Stats,
		Custom:           f.scan.CustomResults(),
		Traces:           f.kept,
		Sched:            sched,
		Saturated:        f.saturated,
	}, nil
}

type scheduleEntry struct {
	kind   payloadKind
	action eos.Name
	// writer is set on composite arms only: the table-writing action the
	// arm schedules immediately before `action` (DBG sequence mutation).
	writer eos.Name
}

func (f *Fuzzer) buildSchedule() []scheduleEntry {
	sched := []scheduleEntry{
		{kind: payloadValidTransfer},
		{kind: payloadDirectFake},
		{kind: payloadFakeToken},
		{kind: payloadForwardedNotif},
	}
	for _, act := range f.actions {
		if act != eos.ActionTransfer {
			sched = append(sched, scheduleEntry{kind: payloadDirectAction, action: act})
		}
	}
	return sched
}

// stepArm dispatches one adaptive arm: plain payload arms reuse step;
// composite arms run the writer→reader pair.
func (f *Fuzzer) stepArm(entry scheduleEntry) error {
	if entry.kind == payloadComposite {
		return f.stepComposite(entry.action, entry.writer)
	}
	return f.step(entry.kind, entry.action)
}

// stepComposite is the DBG-aware sequence mutation: run a writer of a table
// the reader depends on, then the reader, as one scheduled unit — dependent
// transactions are explored together instead of waiting for the reader to
// revert first.
func (f *Fuzzer) stepComposite(reader, writer eos.Name) error {
	seed, pos, gen, ok := f.seeds.queue(reader).nextWeighted()
	if !ok {
		seed = Seed{Action: reader, Params: randomParams(f.rng, []eos.Name{attackerName, victimName})}
	} else {
		f.lastSeed = seedRef{q: f.seeds.queue(reader), pos: pos, gen: gen, ok: true}
	}
	dep := seed.clone()
	dep.Action = writer
	// Fine-grained mode: steer the writer's key parameter to the exact key
	// the reader last failed on, when one was observed.
	if readOp, failed := f.lastRevertRead[reader]; failed {
		if pi, ok := f.dbg.KeyParam(readOp.Table, writer); ok && pi < len(dep.Params) {
			dep.Params[pi].U64 = readOp.Key
		}
	}
	depRcpt, err := f.execute(payloadDirectAction, dep)
	if err != nil {
		return err
	}
	if err := f.observe(payloadDirectAction, dep, depRcpt); err != nil {
		return err
	}
	rcpt, err := f.execute(payloadDirectAction, seed)
	if err != nil {
		return err
	}
	if err := f.observe(payloadDirectAction, seed, rcpt); err != nil {
		return err
	}
	f.planner.CompositeFired()
	return nil
}

// step runs one fuzzing iteration: select a seed, execute, scan, feed back.
func (f *Fuzzer) step(kind payloadKind, action eos.Name) error {
	if kind != payloadDirectAction {
		action = eos.ActionTransfer
	}
	var seed Seed
	var ok bool
	if f.cfg.Adaptive {
		var pos int
		var gen uint32
		seed, pos, gen, ok = f.seeds.queue(action).nextWeighted()
		if ok {
			f.lastSeed = seedRef{q: f.seeds.queue(action), pos: pos, gen: gen, ok: true}
		}
	} else {
		seed, ok = f.seeds.queue(action).next()
	}
	if !ok {
		seed = Seed{Action: action, Params: randomParams(f.rng, []eos.Name{attackerName, victimName})}
	}

	rcpt, err := f.execute(kind, seed)
	if err != nil {
		return err
	}
	if err := f.observe(kind, seed, rcpt); err != nil {
		return err
	}

	// Transaction-dependency resolution (§3.3.2): when a direct action
	// reverts after reading a table, run a writer of that table with the
	// same parameters (so the row keys match) and retry the seed in the
	// same round.
	if !f.cfg.DisableDBG && kind == payloadDirectAction && rcpt.Reverted() {
		if readOp, failed := f.lastRevertRead[action]; failed {
			tb := readOp.Table
			if writer, ok := f.dbg.WriterFor(tb, action); ok {
				// A discovered dependency becomes a composite arm: the
				// adaptive schedule keeps exploring the writer→reader pair
				// on its own energy instead of waiting for another revert.
				if f.cfg.Adaptive && !f.planner.HasArm(int(payloadComposite), uint64(action), uint64(writer)) {
					f.arms = append(f.arms, scheduleEntry{kind: payloadComposite, action: action, writer: writer})
					f.planner.AddArm(int(payloadComposite), uint64(action), uint64(writer), 2*schedule.BaseEnergy)
				}
				dep := seed.clone()
				dep.Action = writer
				// Fine-grained mode: steer the writer's key parameter to
				// the exact key the reader needed.
				if pi, ok := f.dbg.KeyParam(tb, writer); ok && pi < len(dep.Params) {
					dep.Params[pi].U64 = readOp.Key
				}
				depRcpt, err := f.execute(payloadDirectAction, dep)
				if err != nil {
					return err
				}
				if err := f.observe(payloadDirectAction, dep, depRcpt); err != nil {
					return err
				}
				delete(f.lastRevertRead, action)
				retry, err := f.execute(kind, seed)
				if err != nil {
					return err
				}
				if err := f.observe(kind, seed, retry); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// execute materializes the payload transaction for the seed and pushes it.
func (f *Fuzzer) execute(kind payloadKind, seed Seed) (*chain.Receipt, error) {
	// Cancellation checkpoint: one step can push several transactions (the
	// DBG dependency dance), so the per-iteration check in RunContext alone
	// would let a timed-out job finish the whole dance first.
	if f.ctx != nil {
		if err := f.ctx.Err(); err != nil {
			return nil, failure.Wrap(failure.Timeout, err)
		}
	}
	params := f.effectiveParams(kind, seed)
	data := chain.EncodeTransfer(chain.TransferArgs{
		From:     eos.Name(params[0].U64),
		To:       eos.Name(params[1].U64),
		Quantity: eos.Asset{Amount: int64(params[2].Amount), Symbol: eos.Symbol(params[2].Symbol)},
		Memo:     string(params[3].Str),
	})
	var act chain.Action
	switch kind {
	case payloadValidTransfer, payloadForwardedNotif:
		act = chain.Action{Account: eos.TokenContract, Name: eos.ActionTransfer, Data: data}
	case payloadFakeToken:
		act = chain.Action{Account: fakeTokenName, Name: eos.ActionTransfer, Data: data}
	case payloadDirectFake:
		act = chain.Action{Account: victimName, Name: eos.ActionTransfer, Data: data}
	case payloadDirectAction:
		act = chain.Action{Account: victimName, Name: seed.Action, Data: data}
	}
	signer := eos.Name(params[0].U64)
	// The fuzzer holds the keys of accounts it invents: ensure the signer
	// exists so authorization can be granted.
	f.bc.CreateAccount(signer)
	act.Authorization = []chain.PermissionLevel{{Actor: signer, Permission: eos.ActiveAuth}}
	rcpt := f.bc.PushTransaction(chain.Transaction{Actions: []chain.Action{act}})
	// Escalate injected faults to campaign level. Ordinary reverts — asserts,
	// missing rows, bad auth — are the signal the oracles feed on and stay in
	// the receipt; only errors chaining to the injection sentinel mean the
	// infrastructure (not the contract) failed.
	if rcpt.Err != nil && errors.Is(rcpt.Err, faultinject.ErrInjected) {
		return nil, fmt.Errorf("fuzz: iteration %d: %w", f.iter, rcpt.Err)
	}
	return rcpt, nil
}

// effectiveParams constrains the seed to what the payload shape fixes: real
// token transfers are always attacker -> target/agent with a positive
// amount; direct invocations are fully seed-controlled.
func (f *Fuzzer) effectiveParams(kind payloadKind, seed Seed) []symexec.Param {
	params := seed.clone().Params
	switch kind {
	case payloadValidTransfer, payloadFakeToken:
		params[0].U64 = uint64(attackerName)
		params[1].U64 = uint64(victimName)
		params[2].Symbol = uint64(eos.EOSSymbol)
		params[2].Amount = clampAmount(params[2].Amount)
	case payloadForwardedNotif:
		params[0].U64 = uint64(attackerName)
		params[1].U64 = uint64(agentName)
		params[2].Symbol = uint64(eos.EOSSymbol)
		params[2].Amount = clampAmount(params[2].Amount)
	}
	return params
}

func clampAmount(a uint64) uint64 {
	if a == 0 || int64(a) <= 0 {
		return 1
	}
	if a > 1_000_000_000 {
		return 1_000_000_000
	}
	return a
}

// observe updates the scanner, the coverage map, the DBG and the feedback
// loop from one receipt. The only error source is the symbolic feedback
// stage (an injected solver starvation aborting the pool).
func (f *Fuzzer) observe(kind payloadKind, seed Seed, rcpt *chain.Receipt) error {
	victimTraces := make([]trace.Trace, 0, len(rcpt.Traces))
	for _, tr := range rcpt.Traces {
		if tr.Contract == victimName {
			victimTraces = append(victimTraces, tr)
		}
	}

	// Oracles (§3.5).
	switch kind {
	case payloadValidTransfer:
		for i := range victimTraces {
			f.scan.RecordEosponser(&victimTraces[i])
		}
	case payloadDirectFake, payloadFakeToken:
		for i := range victimTraces {
			f.scan.RecordEosponser(&victimTraces[i])
		}
		f.scan.ObserveFakeEOS(victimTraces)
	case payloadForwardedNotif:
		f.scan.ObserveFakeNotif(victimTraces, agentName)
	case payloadDirectAction:
		// Scope the MissAuth oracle to the invoked action's own trace:
		// inline/deferred payouts can notify the contract's eosponser in
		// the same receipt, and its bookkeeping writes are authorized by
		// the token transfer itself, not by permission APIs.
		var own []trace.Trace
		for i := range victimTraces {
			if victimTraces[i].Action == seed.Action {
				own = append(own, victimTraces[i])
			}
		}
		f.scan.ObserveDirectAction(own)
	}
	f.scan.Observe(victimTraces)
	f.scan.ObserveCustom(victimTraces)
	if f.cfg.KeepTraces {
		f.kept = append(f.kept, victimTraces...)
	}

	// Coverage (RQ1 unit: distinct branches of the fuzzing target only).
	before := len(f.coverage)
	for i := range victimTraces {
		for bk := range victimTraces[i].Branches() {
			f.coverage[bk] = struct{}{}
		}
	}
	if len(f.coverage) > before {
		// New territory invalidates earlier flip failures: the same target
		// may now be reachable under a feasible prefix.
		f.attempted = map[symexec.BranchTarget]bool{}
		// Elitism: a seed that discovered coverage is re-queued at the
		// front so deeper, state-dependent behaviour behind its path (for
		// example the tapos lottery outcome) gets retried across blocks.
		f.seeds.queue(seed.Action).pushFront(seed.clone())
	}

	// DBG update + transaction-dependency bookkeeping. Writes also teach
	// the key-level index (paper §5 future work): which seed parameter the
	// written primary key tracks.
	params0 := f.effectiveParams(kind, seed)
	var reads []chain.DBOp
	for _, op := range rcpt.DBOps {
		if op.Contract != victimName {
			continue
		}
		if op.Kind == chain.DBWrite {
			f.dbg.AddWrite(op.Table, op.Action)
			if op.Action == seed.Action {
				f.dbg.LearnKeyParam(op.Table, op.Action, op.Key, params0)
			}
		} else {
			f.dbg.AddRead(op.Table, op.Action)
			reads = append(reads, op)
		}
	}
	if kind == payloadDirectAction {
		if rcpt.Reverted() && len(reads) > 0 {
			f.lastRevertRead[seed.Action] = reads[len(reads)-1]
		} else if !rcpt.Reverted() {
			delete(f.lastRevertRead, seed.Action)
		}
	}

	// Symbolic feedback (§3.4): replay, flip, solve, mutate.
	if f.cfg.DisableFeedback {
		return nil
	}
	params := f.effectiveParams(kind, seed)
	for i := range victimTraces {
		if err := f.feedback(kind, seed, params, &victimTraces[i]); err != nil {
			return err
		}
	}
	return nil
}

// feedback replays one trace and turns unexplored flipped branches into
// adaptive seeds.
func (f *Fuzzer) feedback(kind payloadKind, seed Seed, params []symexec.Param, tr *trace.Trace) error {
	res, err := symexec.Run(f.mod, tr, params, symexec.Options{
		Globals:      map[uint32]uint64{0: uint64(victimName)},
		OpaqueInputs: f.cfg.OpaqueInputs,
	})
	if err != nil {
		// Traces that revert inside the dispatcher (e.g. the Fake EOS guard
		// firing) never reach an action function: nothing to flip there.
		if !errors.Is(err, symexec.ErrNoActionCall) {
			f.replayErr++
		}
		return nil
	}
	// Collect the flip queries for unexplored, unattempted targets and
	// solve them in parallel (§3.4.4: "we collect the target constraints
	// together and solve them in parallel").
	var pool []symbolic.Query
	for _, q := range symexec.FlipQueries(res) {
		key := trace.BranchKey{Func: q.Target.Func, PC: q.Target.PC, Dir: q.Target.Dir}
		if _, covered := f.coverage[key]; covered {
			continue
		}
		if f.attempted[q.Target] {
			continue
		}
		f.attempted[q.Target] = true
		pool = append(pool, symbolic.Query{ID: len(pool), Constraints: q.Constraints})
	}
	if len(pool) == 0 {
		return nil
	}
	ctx := f.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	answers, stats, poolErr := symbolic.SolvePoolCtx(ctx, pool, symbolic.PoolOptions{
		MaxConflicts: f.cfg.SolverConflicts,
		Faults:       f.cfg.Faults,
		Memo:         f.cfg.Memo,
		Incremental:  f.cfg.Incremental,
	})
	f.solver.Stats.Queries += stats.Queries
	f.solver.Stats.FastPathHits += stats.FastPathHits
	f.solver.Stats.SATCalls += stats.SATCalls
	f.solver.Stats.SATConflicts += stats.SATConflicts
	f.solver.Stats.Unknowns += stats.Unknowns
	f.solver.Stats.AssumeCalls += stats.AssumeCalls
	f.solver.Stats.AssumeUnsats += stats.AssumeUnsats
	f.solver.Stats.SimplifiedUnsats += stats.SimplifiedUnsats
	f.solver.Stats.Propagations += stats.Propagations
	for _, a := range answers {
		if a.Result != symbolic.Sat {
			continue
		}
		mutated := symexec.ApplyModel(params, a.Model)
		f.adaptive++
		f.seeds.queue(seed.Action).pushFront(Seed{Action: seed.Action, Params: mutated})
	}
	if poolErr != nil {
		return fmt.Errorf("fuzz: iteration %d: solver pool: %w", f.iter, poolErr)
	}
	return nil
}
