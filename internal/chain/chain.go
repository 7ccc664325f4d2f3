package chain

import (
	"errors"
	"fmt"

	"repro/internal/abi"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/faultinject"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// PermissionLevel is an (actor, permission) authorization pair.
type PermissionLevel struct {
	Actor      eos.Name
	Permission eos.Name
}

// Action is one action of a transaction.
type Action struct {
	Account       eos.Name // the contract the action is addressed to
	Name          eos.Name
	Authorization []PermissionLevel
	Data          []byte
}

// Transaction is an ordered list of actions executed atomically.
type Transaction struct {
	Actions []Action
}

// ErrAssert is the failure produced by eosio_assert. It deliberately
// carries no failure class: assertion failures are fuzzing signal, not
// infrastructure faults.
var ErrAssert = errors.New("eosio_assert failed") //wasai:rawerr

// AssertError carries the contract-supplied assertion message.
type AssertError struct {
	Msg string
}

// Error implements error.
func (e *AssertError) Error() string { return fmt.Sprintf("eosio_assert: %s", e.Msg) }

// Is makes AssertError match ErrAssert.
func (e *AssertError) Is(target error) bool { return target == ErrAssert }

// DBOpKind distinguishes reads from writes for the DBG (paper §3.3.2).
type DBOpKind byte

// Database operation kinds.
const (
	DBRead DBOpKind = iota + 1
	DBWrite
)

// DBOp records one database access: the pair ⟨read|write, tb⟩ of §3.3.2,
// extended with the primary key for the fine-grained dependency mode the
// paper lists as future work ("parse the database index").
type DBOp struct {
	Contract eos.Name
	Action   eos.Name
	Kind     DBOpKind
	Table    eos.Name
	Key      uint64
}

// ExecutedAction records one apply in a transaction receipt.
type ExecutedAction struct {
	Receiver eos.Name
	Code     eos.Name // the "code" parameter of apply(): the addressed contract
	Action   eos.Name
	// Notified reports whether this apply was a notification (receiver != code).
	Notified bool
}

// Receipt summarizes one executed (or reverted) transaction.
type Receipt struct {
	Executed []ExecutedAction
	Console  string
	Traces   []trace.Trace
	DBOps    []DBOp
	// InlineSent lists inline actions dispatched during execution.
	InlineSent []Action
	// DeferredSent lists deferred transactions scheduled during execution.
	DeferredSent []Transaction
	// Err is non-nil when the transaction reverted; all state changes were
	// rolled back but the traces of the partial execution are retained
	// (WASAI analyzes reverted runs too).
	Err error
}

// Reverted reports whether the transaction failed and was rolled back.
func (r *Receipt) Reverted() bool { return r.Err != nil }

// NativeContract is a contract implemented in Go rather than Wasm (system
// contracts and the adversary-oracle agent contracts).
type NativeContract interface {
	// ApplyNative handles apply(receiver=ctx.Receiver, code, action).
	ApplyNative(ctx *Context, code, action eos.Name) error
}

// Account is one chain account.
type Account struct {
	Name eos.Name

	// Wasm contract (nil when the account has no code or native code).
	Module *wasm.Module
	ABI    *abi.ABI
	// Sites is the instrumentation site table when the deployed binary is
	// instrumented (nil otherwise); hooks are silent without it.
	Sites *instrument.SiteTable
	// prog is the module's decoded-IR program, compiled once at deploy and
	// shared by every apply of the module (and by every chain the account
	// is copied to with DeployFrom). Nil runs the module on the reference
	// tree-walker.
	prog *exec.Program

	// Native contract (nil for Wasm accounts).
	Native NativeContract
}

// HasCode reports whether the account has any contract deployed.
func (a *Account) HasCode() bool { return a.Module != nil || a.Native != nil }

// Blockchain is a single-node EOSIO chain simulator.
type Blockchain struct {
	accounts map[eos.Name]*Account
	db       *Database

	// Collector receives traces from instrumented contracts. Nil disables
	// collection.
	Collector *trace.Collector

	blockNum    uint32
	blockPrefix uint32
	timeUs      uint64 // microseconds since epoch

	deferred []Transaction

	// MaxInlineDepth bounds inline-action recursion, as EOSIO does.
	MaxInlineDepth int
	// Fuel is the per-action instruction budget for Wasm execution.
	Fuel int64
	// Faults, when non-nil, injects the planned fault ahead of host-API
	// dispatch (see internal/faultinject). Chains execute transactions
	// single-threaded, so the host-call order — and therefore which call
	// the fault lands on — is deterministic.
	Faults *faultinject.Injector
	// HoldBlocks freezes the block head: PushTransaction skips the
	// post-transaction advanceBlock, so block number, time and tapos
	// prefix stay constant across transactions. The multi-transaction
	// scenario driver uses this to compare permuted transaction sequences
	// under identical block state — otherwise every tapos read would
	// differ between the two orders and mask genuine ordering dependence.
	HoldBlocks bool

	backend Backend
}

// New returns an EOSIO chain with the eosio.token system contract
// deployed and no other accounts.
func New() *Blockchain { return NewWithBackend(EOSIO()) }

// NewWithBackend returns a chain running the given personality: the
// backend supplies the host-API surface and bootstraps its system
// contracts; everything else (dispatch, database, rollback, traces) is
// personality-independent.
func NewWithBackend(b Backend) *Blockchain {
	bc := &Blockchain{
		accounts:       map[eos.Name]*Account{},
		db:             NewDatabase(),
		blockNum:       1000,
		blockPrefix:    0x5eed5eed,
		timeUs:         1_577_836_800_000_000, // 2020-01-01T00:00:00Z
		MaxInlineDepth: 16,
		Fuel:           exec.DefaultFuel,
		backend:        b,
	}
	b.Bootstrap(bc)
	return bc
}

// Backend returns the chain's personality.
func (bc *Blockchain) Backend() Backend { return bc.backend }

// DB exposes the database (tests and detectors inspect it directly).
func (bc *Blockchain) DB() *Database { return bc.db }

// CreateAccount registers an account with no code.
func (bc *Blockchain) CreateAccount(name eos.Name) *Account {
	if a, ok := bc.accounts[name]; ok {
		return a
	}
	a := &Account{Name: name}
	bc.accounts[name] = a
	return a
}

// Account returns the named account, or nil.
func (bc *Blockchain) Account(name eos.Name) *Account { return bc.accounts[name] }

// DeployWasm installs a Wasm contract with its ABI on an account, creating
// the account if necessary. The module is instantiated once immediately to
// surface link errors at deploy time, as Nodeos does.
func (bc *Blockchain) DeployWasm(name eos.Name, bin []byte, contractABI *abi.ABI) error {
	m, err := wasm.Decode(bin)
	if err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	if err := wasm.Validate(m); err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	sites, err := instrument.SitesFromModule(m)
	if err != nil {
		return fmt.Errorf("chain: deploy %s: %w", name, err)
	}
	return bc.DeployModule(name, m, contractABI, sites)
}

// DeployModule installs an already-decoded module (skips re-decoding; used
// by the fuzzer, which instruments modules in memory) and compiles its
// decoded-IR program.
func (bc *Blockchain) DeployModule(name eos.Name, m *wasm.Module, contractABI *abi.ABI, sites *instrument.SiteTable) error {
	return bc.deploy(name, m, exec.Compile(m), contractABI, sites)
}

// DeployFrom installs the Wasm contract deployed on src — module, ABI,
// site table and compiled program — on the named account. The program is
// shared, not recompiled: the fuzzer's scenario chains run the program its
// campaign chain compiled once.
func (bc *Blockchain) DeployFrom(name eos.Name, src *Account) error {
	return bc.deploy(name, src.Module, src.prog, src.ABI, src.Sites)
}

// deploy link-checks m against this chain's host API and installs it with
// its compiled program.
func (bc *Blockchain) deploy(name eos.Name, m *wasm.Module, prog *exec.Program, contractABI *abi.ABI, sites *instrument.SiteTable) error {
	a := bc.CreateAccount(name)
	if _, err := exec.Instantiate(m, bc.resolverFor(nil)); err != nil {
		return fmt.Errorf("chain: deploy %s: link: %w", name, err)
	}
	a.Module = m
	a.prog = prog
	a.ABI = contractABI
	a.Sites = sites
	a.Native = nil
	return nil
}

// DeployNative installs a Go-implemented contract on an account.
func (bc *Blockchain) DeployNative(name eos.Name, n NativeContract, contractABI *abi.ABI) {
	a := bc.CreateAccount(name)
	a.Native = n
	a.ABI = contractABI
	a.Module = nil
	a.prog = nil
}

// UnDeploy removes the contract from an account (the paper's "abandoned"
// contracts have their latest versions replaced with empty files).
func (bc *Blockchain) UnDeploy(name eos.Name) {
	if a, ok := bc.accounts[name]; ok {
		a.Module = nil
		a.prog = nil
		a.Native = nil
	}
}

// TimeUs returns the current chain time in microseconds.
func (bc *Blockchain) TimeUs() uint64 { return bc.timeUs }

// BlockNum returns the current head block number.
func (bc *Blockchain) BlockNum() uint32 { return bc.blockNum }

// TaposBlockNum mirrors the tapos_block_num intrinsic.
func (bc *Blockchain) TaposBlockNum() uint32 { return bc.blockNum & 0xffff }

// TaposBlockPrefix mirrors the tapos_block_prefix intrinsic.
func (bc *Blockchain) TaposBlockPrefix() uint32 { return bc.blockPrefix }

// advanceBlock moves the chain head forward one block.
func (bc *Blockchain) advanceBlock() {
	bc.blockNum++
	bc.timeUs += 500_000 // 500ms block interval
	// Deterministic pseudo-random-looking prefix evolution.
	bc.blockPrefix = bc.blockPrefix*1664525 + 1013904223
}

// PushTransaction executes tx atomically: on any failure all state changes
// are rolled back and the receipt carries the error. Deferred transactions
// scheduled by tx are executed afterwards, each in its own transaction
// context (their failure does not revert tx — the Rollback-safe pattern of
// paper §2.3.5).
func (bc *Blockchain) PushTransaction(tx Transaction) *Receipt {
	rcpt := bc.runTransaction(tx)
	// Run scheduled deferred transactions (only when the parent committed).
	if rcpt.Err == nil {
		for len(bc.deferred) > 0 {
			d := bc.deferred[0]
			bc.deferred = bc.deferred[1:]
			sub := bc.runTransaction(d)
			rcpt.Executed = append(rcpt.Executed, sub.Executed...)
			rcpt.Traces = append(rcpt.Traces, sub.Traces...)
			rcpt.DBOps = append(rcpt.DBOps, sub.DBOps...)
			rcpt.Console += sub.Console
		}
	} else {
		bc.deferred = nil
	}
	if !bc.HoldBlocks {
		bc.advanceBlock()
	}
	return rcpt
}

func (bc *Blockchain) runTransaction(tx Transaction) *Receipt {
	snapshot := bc.db.Snapshot()
	deferredMark := len(bc.deferred)
	rcpt := &Receipt{}
	txctx := &txContext{chain: bc, receipt: rcpt}
	for i := range tx.Actions {
		if err := bc.applyActionTree(txctx, tx.Actions[i], 0); err != nil {
			rcpt.Err = fmt.Errorf("action %d (%s@%s): %w", i, tx.Actions[i].Name, tx.Actions[i].Account, err)
			bc.db.Restore(snapshot)
			// Discard only the deferred transactions this tx scheduled.
			bc.deferred = bc.deferred[:deferredMark]
			break
		}
	}
	if bc.Collector != nil {
		rcpt.Traces = append(rcpt.Traces, bc.Collector.TakeTraces()...)
	}
	return rcpt
}

// txContext carries per-transaction execution state.
type txContext struct {
	chain   *Blockchain
	receipt *Receipt
}

// applyActionTree executes one action: the primary apply on the addressed
// contract, then notification applies, then inline actions (depth-first),
// matching EOSIO's dispatch order.
func (bc *Blockchain) applyActionTree(txctx *txContext, act Action, depth int) error {
	if depth > bc.MaxInlineDepth {
		return failure.Newf(failure.Trap, "chain: inline action depth %d exceeds limit", depth)
	}
	// Primary apply: receiver == code == act.Account.
	notified, inline, err := bc.applyOne(txctx, act.Account, act.Account, act, depth)
	if err != nil {
		return err
	}
	// Notification applies (receiver varies, code stays).
	seen := map[eos.Name]bool{act.Account: true}
	for i := 0; i < len(notified); i++ {
		r := notified[i]
		if seen[r] {
			continue
		}
		seen[r] = true
		moreNotified, moreInline, err := bc.applyOne(txctx, r, act.Account, act, depth)
		if err != nil {
			return err
		}
		notified = append(notified, moreNotified...)
		inline = append(inline, moreInline...)
	}
	// Inline actions, depth-first.
	for _, in := range inline {
		txctx.receipt.InlineSent = append(txctx.receipt.InlineSent, in)
		if err := bc.applyActionTree(txctx, in, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// applyOne runs a single apply(receiver, code, action) and returns the
// accounts to notify and the inline actions dispatched.
func (bc *Blockchain) applyOne(txctx *txContext, receiver, code eos.Name, act Action, depth int) (notified []eos.Name, inline []Action, err error) {
	acct, ok := bc.accounts[receiver]
	if !ok {
		if receiver == code {
			return nil, nil, failure.Newf(failure.Trap, "chain: unknown account %s", receiver)
		}
		return nil, nil, nil // notifying a non-existent account is a no-op
	}
	txctx.receipt.Executed = append(txctx.receipt.Executed, ExecutedAction{
		Receiver: receiver, Code: code, Action: act.Name, Notified: receiver != code,
	})
	if !acct.HasCode() {
		// Accounts without code accept actions and notifications as no-ops
		// (plain wallet accounts), but the receipt still records them.
		return nil, nil, nil
	}

	ctx := &Context{
		chain:    bc,
		tx:       txctx,
		Receiver: receiver,
		Code:     code,
		Action:   act.Name,
		Data:     act.Data,
		Auth:     act.Authorization,
		iters:    NewIterCache(bc.db),
		depth:    depth,
	}

	if acct.Native != nil {
		err = acct.Native.ApplyNative(ctx, code, act.Name)
	} else {
		err = bc.applyWasm(ctx, acct)
	}

	// Export this apply's trace even when it failed: WASAI instruments the
	// contract itself, and a reverted execution still shows the path taken.
	if bc.Collector != nil {
		bc.Collector.Finalize(receiver, act.Name)
	}
	txctx.receipt.Console += ctx.console.String()
	txctx.receipt.DBOps = append(txctx.receipt.DBOps, ctx.dbOps...)
	if err != nil {
		return nil, nil, err
	}
	txctx.receipt.DeferredSent = append(txctx.receipt.DeferredSent, ctx.deferred...)
	bc.deferred = append(bc.deferred, ctx.deferred...)
	return ctx.notified, ctx.inline, nil
}

// applyWasm instantiates the account's module and invokes its apply entry
// on the program compiled at deploy.
func (bc *Blockchain) applyWasm(ctx *Context, acct *Account) error {
	inst, err := exec.Instantiate(acct.Module, bc.resolverFor(ctx))
	if err != nil {
		return fmt.Errorf("chain: instantiate %s: %w", acct.Name, err)
	}
	vm := exec.NewFastVM(inst, acct.prog)
	vm.SetFuel(bc.Fuel)
	vm.Context = ctx
	ctx.vm = vm
	_, err = vm.Invoke("apply", uint64(ctx.Receiver), uint64(ctx.Code), uint64(ctx.Action))
	if err != nil {
		return err
	}
	return nil
}
