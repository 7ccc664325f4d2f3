package chain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/wasm/exec"
)

// engine_reference_test.go is the live reference check of the execution
// engine at the layer that used to choose it. Every Wasm account runs on
// the decoded-IR program compiled at deploy; clearing the account's
// program forces the same module onto the reference tree-walker. Two
// chains that differ only in that field must turn one deterministic
// transaction script into byte-identical receipts — traces, DB ops,
// console, errors — and identical fuel at every host call.

var (
	refAttacker  = eos.MustName("attacker")
	refFakeToken = eos.MustName("fake.token")
	refAgent     = eos.MustName("fake.notif")
)

// fuelLogBackend is the EOSIO personality with every intrinsic logging its
// name and the VM's remaining fuel before it runs.
type fuelLogBackend struct {
	Backend
	log *[]string
}

func (b fuelLogBackend) HostEnv(bc *Blockchain) exec.HostModule {
	env := b.Backend.HostEnv(bc)
	for name, fn := range env {
		env[name] = func(vm *exec.VM, args []uint64) ([]uint64, error) {
			*b.log = append(*b.log, fmt.Sprintf("%s fuel=%d", name, vm.Fuel()))
			return fn(vm, args)
		}
	}
	return env
}

// referenceChain mirrors the fuzzer's campaign deployment: the
// instrumented contract on the victim account, a counterfeit token, the
// notification-forwarding agent and funded accounts. treeWalker clears the
// victim's compiled program.
func referenceChain(t *testing.T, res *instrument.Result, contractABI *abi.ABI, treeWalker bool) (*Blockchain, *[]string) {
	t.Helper()
	log := new([]string)
	bc := NewWithBackend(fuelLogBackend{Backend: EOSIO(), log: log})
	bc.Collector = trace.NewCollector()
	if err := bc.DeployModule(victim, res.Module, contractABI, res.Sites); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if bc.Account(victim).prog == nil {
		t.Fatal("DeployModule left the account without a compiled program")
	}
	if treeWalker {
		bc.Account(victim).prog = nil
	}
	bc.DeployNative(refFakeToken, &TokenContract{Issuer: refFakeToken, Sym: eos.EOSSymbol}, abi.TransferABI())
	bc.DeployNative(refAgent, &ForwarderAgent{Victim: victim}, nil)
	bc.CreateAccount(refAttacker)
	for _, fund := range []struct{ token, to eos.Name }{
		{eos.TokenContract, refAttacker}, {eos.TokenContract, victim}, {refFakeToken, refAttacker},
	} {
		if err := bc.Issue(fund.token, fund.to, eos.EOS(1_000_000_000_000)); err != nil {
			t.Fatalf("fund %s: %v", fund.to, err)
		}
	}
	return bc, log
}

// referenceScript is the deterministic transaction script: each ABI
// action called directly under three authorities, then genuine,
// counterfeit and forwarded transfer notifications, over several rounds
// of seeded quantities and memos.
func referenceScript(contractABI *abi.ABI, seed int64) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	var txs []Transaction
	for round := 0; round < 3; round++ {
		qty := eos.EOS(int64(1 + rng.Intn(200_000)))
		memo := fmt.Sprintf("m%d", rng.Intn(1000))
		payload := func(from, to eos.Name) []byte {
			return EncodeTransfer(TransferArgs{From: from, To: to, Quantity: qty, Memo: memo})
		}
		for _, a := range contractABI.Actions {
			for _, s := range []struct{ from, signer eos.Name }{
				{refAttacker, refAttacker}, {victim, refAttacker}, {victim, victim},
			} {
				txs = append(txs, Transaction{Actions: []Action{{
					Account: victim, Name: a.Name, Authorization: auth(s.signer), Data: payload(s.from, victim),
				}}})
			}
		}
		for _, tr := range []struct{ token, to eos.Name }{
			{eos.TokenContract, victim}, {refFakeToken, victim}, {eos.TokenContract, refAgent},
		} {
			txs = append(txs, Transaction{Actions: []Action{{
				Account: tr.token, Name: eos.ActionTransfer, Authorization: auth(refAttacker), Data: payload(refAttacker, tr.to),
			}}})
		}
	}
	return txs
}

// requireSameReceipt compares every receipt field, errors by message.
func requireSameReceipt(t *testing.T, label string, fast, ref *Receipt) {
	t.Helper()
	errText := func(r *Receipt) string {
		if r.Err == nil {
			return ""
		}
		return r.Err.Error()
	}
	if a, b := errText(fast), errText(ref); a != b {
		t.Fatalf("%s: error diverged:\n fast: %q\n tree: %q", label, a, b)
	}
	for _, f := range []struct {
		name       string
		fast, tree any
	}{
		{"traces", fast.Traces, ref.Traces},
		{"db ops", fast.DBOps, ref.DBOps},
		{"console", fast.Console, ref.Console},
		{"executed", fast.Executed, ref.Executed},
		{"inline", fast.InlineSent, ref.InlineSent},
		{"deferred", fast.DeferredSent, ref.DeferredSent},
	} {
		if !reflect.DeepEqual(f.fast, f.tree) {
			t.Fatalf("%s: %s diverged:\n fast: %+v\n tree: %+v", label, f.name, f.fast, f.tree)
		}
	}
}

type namedContract struct {
	name string
	c    *contractgen.Contract
}

// referenceContracts is the script's corpus: a wild population plus both
// polarities of every Table-4 class, and an obfuscated copy of each
// Table-4 contract (popcount arithmetic and opaque recursion exercise the
// fuel and call-depth traps).
func referenceContracts(t *testing.T) []namedContract {
	t.Helper()
	var out []namedContract
	wild, err := contractgen.GenerateWild(contractgen.DefaultWildOptions(6), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("wild population: %v", err)
	}
	for i, w := range wild {
		out = append(out, namedContract{fmt.Sprintf("wild-%d-%s", i, w.Name), w.Contract})
	}
	rng := rand.New(rand.NewSource(4))
	for _, class := range contractgen.Classes {
		for _, vul := range []bool{true, false} {
			spec := contractgen.RandomSpec(class, vul, rng)
			for _, obfuscated := range []bool{false, true} {
				c, err := contractgen.Generate(spec)
				if err != nil {
					t.Fatalf("generate %s: %v", class, err)
				}
				if obfuscated {
					if _, err := contractgen.Obfuscate(c.Module, contractgen.DefaultObfuscation(rng)); err != nil {
						t.Fatalf("obfuscate %s: %v", class, err)
					}
				}
				out = append(out, namedContract{fmt.Sprintf("%s-vul=%v-obf=%v", class, vul, obfuscated), c})
			}
		}
	}
	return out
}

// TestEngineMatchesTreeWalker pushes the script through both engines twice:
// at the default fuel budget, and starved — each transaction under a
// seeded budget small enough to run out of fuel mid-action, so fuel traps
// land at many different instructions.
func TestEngineMatchesTreeWalker(t *testing.T) {
	exhausted := 0
	for ci, nc := range referenceContracts(t) {
		name, c := nc.name, nc.c
		res, err := instrument.Instrument(c.Module, instrument.ModeSparse)
		if err != nil {
			t.Fatalf("%s: instrument: %v", name, err)
		}
		if idx, ok := res.Module.ExportedFunc("apply"); !ok || !exec.IRFor(res.Module).Func(idx).OK() {
			t.Fatalf("%s: apply did not compile to IR; the check would compare the tree-walker with itself", name)
		}
		for _, starved := range []bool{false, true} {
			fast, fastLog := referenceChain(t, res, c.ABI, false)
			ref, refLog := referenceChain(t, res, c.ABI, true)
			budgets := rand.New(rand.NewSource(int64(ci)))
			for i, tx := range referenceScript(c.ABI, int64(ci)) {
				if starved {
					fast.Fuel = 20 + budgets.Int63n(300)
					ref.Fuel = fast.Fuel
				}
				label := fmt.Sprintf("%s starved=%v tx %d", name, starved, i)
				rcpt := fast.PushTransaction(tx)
				requireSameReceipt(t, label, rcpt, ref.PushTransaction(tx))
				if !reflect.DeepEqual(*fastLog, *refLog) {
					t.Fatalf("%s: host calls or fuel diverged:\n fast: %v\n tree: %v", label, *fastLog, *refLog)
				}
				if exec.IsTrap(rcpt.Err, exec.TrapFuelExhausted) {
					exhausted++
				}
			}
			if a, b := fast.DB().DumpContract(victim), ref.DB().DumpContract(victim); a != b {
				t.Fatalf("%s starved=%v: final victim state diverged:\n fast: %s\n tree: %s", name, starved, a, b)
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no starved transaction ran out of fuel; the fuel-trap comparison is vacuous")
	}
}
