// Package stage is the benchmark's stage driver: it runs a contract
// through the pipeline layers' public functions in the fuzzer's order —
// instrument, chain.New + DeployModule, PushTransaction for each payload
// kind, the scanner's observe calls, symexec.Run + FlipQueries on each
// target trace, symbolic.SolvePoolCtx — and times every call from
// outside, together with exec.Instantiate on the deployed module. It also
// runs the real fuzzer (fuzz.New / RunPhase / Finish) with outer spans.
//
// Only the traced run imports this package, so an internal signature
// change in a later refactor can break the traced run but never the
// timed one.
package stage

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/scanner"
	"repro/internal/symbolic"
	"repro/internal/symexec"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// The campaign accounts, as the fuzzer names them.
var (
	attacker  = eos.MustName("attacker")
	fakeToken = eos.MustName("fake.token")
	agent     = eos.MustName("fake.notif")
	victim    = eos.MustName("victim")
)

// Observer receives every timed stage call.
type Observer func(name string, start, end time.Time)

// Config sizes one driver run.
type Config struct {
	// Txs is the number of transactions driven through the schedule.
	Txs int
	// Instantiations is the number of timed exec.Instantiate calls.
	Instantiations  int
	SolverConflicts int64
	Feedback        bool
	Seed            int64
}

// Stats are the driver's work counts for one contract.
type Stats struct {
	HookSites      int
	Txs            int
	Applies        int
	DBOps          int
	Events         int
	Traces         int // target traces replayed
	ReplayFailures int // target traces the replay rejected (most have no action dispatch)
	Steps          int
	Nodes          int
	FlipQueries    int
	ReplayAlloc    uint64 // bytes allocated by the replays and flip builds
	Solves         int
	Instantiations int
	InstAlloc      uint64 // bytes allocated by the timed instantiations
}

type payload int

const (
	validTransfer payload = iota
	directFake
	fakeTokenTransfer
	forwardedNotif
	directAction
)

type arm struct {
	kind   payload
	action eos.Name
}

// driver holds one contract's chain, scanner and feedback state.
type driver struct {
	cfg       Config
	mod       *wasm.Module
	bc        *chain.Blockchain
	scan      *scanner.Scanner
	rng       *rand.Rand
	seeds     map[eos.Name][][]symexec.Param
	coverage  map[trace.BranchKey]bool
	attempted map[symexec.BranchTarget]bool
	obs       Observer
	st        Stats
}

// allocated reads the process's cumulative heap allocation. The driver
// runs on one goroutine with nothing else running, so deltas are the
// stage's own allocation.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (d *driver) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	d.obs(name, start, time.Now())
	return err
}

// Run drives one contract through the stages. It must run alone in the
// process for the allocation counts to be exact.
func Run(mod *wasm.Module, contractABI *abi.ABI, cfg Config, obs Observer) (*Stats, error) {
	d := &driver{
		cfg:       cfg,
		mod:       mod,
		scan:      scanner.New(mod, victim),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		seeds:     map[eos.Name][][]symexec.Param{},
		coverage:  map[trace.BranchKey]bool{},
		attempted: map[symexec.BranchTarget]bool{},
		obs:       obs,
	}
	var res *instrument.Result
	if err := d.timed("instrument", func() (err error) {
		res, err = instrument.Instrument(mod, instrument.ModeSparse)
		return err
	}); err != nil {
		return nil, fmt.Errorf("stage: instrument: %w", err)
	}
	d.st.HookSites = len(res.Sites.Sites)
	if err := d.timed("chain.deploy", func() error { return d.deploy(res, contractABI) }); err != nil {
		return nil, fmt.Errorf("stage: deploy: %w", err)
	}
	if err := d.instantiate(res.Module); err != nil {
		return nil, fmt.Errorf("stage: instantiate: %w", err)
	}
	arms := []arm{{kind: validTransfer}, {kind: directFake}, {kind: fakeTokenTransfer}, {kind: forwardedNotif}}
	for _, act := range contractABI.Actions {
		if act.Name != eos.ActionTransfer {
			arms = append(arms, arm{kind: directAction, action: act.Name})
		}
	}
	for i := 0; i < cfg.Txs; i++ {
		if err := d.step(arms[i%len(arms)]); err != nil {
			return nil, err
		}
	}
	return &d.st, nil
}

// deploy mirrors fuzz.New's chain set-up: the instrumented target, the
// counterfeit token, the notification agent and the funded accounts.
func (d *driver) deploy(res *instrument.Result, contractABI *abi.ABI) error {
	d.bc = chain.New()
	d.bc.Collector = trace.NewCollector()
	if err := d.bc.DeployModule(victim, res.Module, contractABI, res.Sites); err != nil {
		return err
	}
	d.bc.DeployNative(fakeToken, &chain.TokenContract{Issuer: fakeToken, Sym: eos.EOSSymbol}, abi.TransferABI())
	d.bc.DeployNative(agent, &chain.ForwarderAgent{Victim: victim}, nil)
	d.bc.CreateAccount(attacker)
	for _, grant := range []struct{ token, to eos.Name }{
		{eos.TokenContract, attacker}, {eos.TokenContract, victim}, {fakeToken, attacker},
	} {
		if err := d.bc.Issue(grant.token, grant.to, eos.EOS(1_000_000_000_000)); err != nil {
			return err
		}
	}
	return nil
}

// instantiate times exec.Instantiate on the deployed module, with the
// resolver the chain builds per apply: the backend's env module plus the
// instrumentation hook module (stubbed here; hooks only run on invoke).
func (d *driver) instantiate(m *wasm.Module) error {
	hooks := exec.HostModule{}
	for _, imp := range m.Imports {
		if imp.Module == instrument.HookModule {
			hooks[imp.Name] = func(*exec.VM, []uint64) ([]uint64, error) { return nil, nil }
		}
	}
	for i := 0; i < d.cfg.Instantiations; i++ {
		before := allocated()
		err := d.timed("exec.instantiate", func() error {
			_, err := exec.Instantiate(m, exec.Resolver{"env": d.bc.Backend().HostEnv(d.bc), instrument.HookModule: hooks})
			return err
		})
		d.st.InstAlloc += allocated() - before
		if err != nil {
			return err
		}
		d.st.Instantiations++
	}
	return nil
}

// randomParams draws a transfer-shaped seed the way the fuzzer's initial
// pool does.
func (d *driver) randomParams() []symexec.Param {
	accounts := []eos.Name{attacker, victim, agent, eos.MustName("bob")}
	pick := func() uint64 {
		if d.rng.Intn(3) == 0 {
			return d.rng.Uint64()
		}
		return uint64(accounts[d.rng.Intn(len(accounts))])
	}
	amount := uint64(d.rng.Intn(2_000_000))
	memo := make([]byte, d.rng.Intn(12))
	for i := range memo {
		memo[i] = byte('a' + d.rng.Intn(26))
	}
	return []symexec.Param{
		{Type: "name", U64: pick()},
		{Type: "name", U64: pick()},
		{Type: "asset", Amount: amount, Symbol: uint64(eos.EOSSymbol)},
		{Type: "string", Str: memo},
	}
}

// effective pins what the payload shape fixes, as the fuzzer does.
func effective(kind payload, seed []symexec.Param) []symexec.Param {
	p := append([]symexec.Param(nil), seed...)
	clamp := func(a uint64) uint64 {
		if a == 0 || int64(a) <= 0 {
			return 1
		}
		return min(a, 1_000_000_000)
	}
	switch kind {
	case validTransfer, fakeTokenTransfer:
		p[0].U64, p[1].U64 = uint64(attacker), uint64(victim)
		p[2].Symbol, p[2].Amount = uint64(eos.EOSSymbol), clamp(p[2].Amount)
	case forwardedNotif:
		p[0].U64, p[1].U64 = uint64(attacker), uint64(agent)
		p[2].Symbol, p[2].Amount = uint64(eos.EOSSymbol), clamp(p[2].Amount)
	}
	return p
}

func (d *driver) step(a arm) error {
	action := a.action
	if a.kind != directAction {
		action = eos.ActionTransfer
	}
	var seed []symexec.Param
	if q := d.seeds[action]; len(q) > 0 {
		seed, d.seeds[action] = q[0], q[1:]
	} else {
		seed = d.randomParams()
	}
	params := effective(a.kind, seed)
	data := chain.EncodeTransfer(chain.TransferArgs{
		From:     eos.Name(params[0].U64),
		To:       eos.Name(params[1].U64),
		Quantity: eos.Asset{Amount: int64(params[2].Amount), Symbol: eos.Symbol(params[2].Symbol)},
		Memo:     string(params[3].Str),
	})
	act := chain.Action{Account: victim, Name: action, Data: data}
	switch a.kind {
	case validTransfer, forwardedNotif:
		act.Account = eos.TokenContract
	case fakeTokenTransfer:
		act.Account = fakeToken
	}
	signer := eos.Name(params[0].U64)
	d.bc.CreateAccount(signer)
	act.Authorization = []chain.PermissionLevel{{Actor: signer, Permission: eos.ActiveAuth}}

	var rcpt *chain.Receipt
	d.timed("chain.push", func() error {
		rcpt = d.bc.PushTransaction(chain.Transaction{Actions: []chain.Action{act}})
		return nil
	})
	d.st.Txs++
	d.st.Applies += len(rcpt.Executed)
	d.st.DBOps += len(rcpt.DBOps)
	var targets []trace.Trace
	for _, tr := range rcpt.Traces {
		d.st.Events += len(tr.Events)
		if tr.Contract == victim {
			targets = append(targets, tr)
		}
	}
	d.timed("scanner.observe", func() error {
		d.observe(a.kind, action, targets)
		return nil
	})
	if !d.cfg.Feedback {
		return nil
	}
	for i := range targets {
		if err := d.feedback(action, params, &targets[i]); err != nil {
			return err
		}
	}
	return nil
}

// observe makes the scanner calls the fuzzer makes for the payload kind,
// then updates coverage.
func (d *driver) observe(kind payload, action eos.Name, targets []trace.Trace) {
	switch kind {
	case validTransfer:
		for i := range targets {
			d.scan.RecordEosponser(&targets[i])
		}
	case directFake, fakeTokenTransfer:
		for i := range targets {
			d.scan.RecordEosponser(&targets[i])
		}
		d.scan.ObserveFakeEOS(targets)
	case forwardedNotif:
		d.scan.ObserveFakeNotif(targets, agent)
	case directAction:
		var own []trace.Trace
		for i := range targets {
			if targets[i].Action == action {
				own = append(own, targets[i])
			}
		}
		d.scan.ObserveDirectAction(own)
	}
	d.scan.Observe(targets)
	grew := false
	for i := range targets {
		for bk := range targets[i].Branches() {
			if !d.coverage[bk] {
				d.coverage[bk] = true
				grew = true
			}
		}
	}
	if grew {
		d.attempted = map[symexec.BranchTarget]bool{}
	}
}

// feedback replays one target trace, builds its flip queries and solves
// the unexplored ones, queueing solved models as seeds.
func (d *driver) feedback(action eos.Name, params []symexec.Param, tr *trace.Trace) error {
	var (
		res     *symexec.Result
		queries []symexec.FlipQuery
		err     error
	)
	before := allocated()
	d.timed("symexec.replay", func() error {
		res, err = symexec.Run(d.mod, tr, params, symexec.Options{Globals: map[uint32]uint64{0: uint64(victim)}})
		if err == nil {
			queries = symexec.FlipQueries(res)
		}
		return err
	})
	d.st.ReplayAlloc += allocated() - before
	if err != nil {
		d.st.ReplayFailures++
		return nil
	}
	d.st.Traces++
	d.st.Steps += res.Steps
	d.st.Nodes += res.Ctx.NumNodes()
	d.st.FlipQueries += len(queries)
	var pool []symbolic.Query
	for _, q := range queries {
		if d.coverage[trace.BranchKey{Func: q.Target.Func, PC: q.Target.PC, Dir: q.Target.Dir}] || d.attempted[q.Target] {
			continue
		}
		d.attempted[q.Target] = true
		pool = append(pool, symbolic.Query{ID: len(pool), Constraints: q.Constraints})
	}
	if len(pool) == 0 {
		return nil
	}
	var answers []symbolic.Answer
	if err := d.timed("symbolic.solve", func() (err error) {
		answers, _, err = symbolic.SolvePoolCtx(context.Background(), pool, symbolic.PoolOptions{MaxConflicts: d.cfg.SolverConflicts})
		return err
	}); err != nil {
		return fmt.Errorf("stage: solve: %w", err)
	}
	d.st.Solves++
	for _, a := range answers {
		if a.Result == symbolic.Sat {
			d.seeds[action] = append([][]symexec.Param{symexec.ApplyModel(params, a.Model)}, d.seeds[action]...)
		}
	}
	return nil
}
