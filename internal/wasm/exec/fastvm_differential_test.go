package exec

import (
	"math/rand"
	"testing"

	"repro/internal/contractgen"
)

// semOutcome is the full observable behaviour of one engine on one
// generated self-checking module.
type semOutcome struct {
	result  []uint64
	trap    TrapKind
	fuel    int64
	memHash uint64
	notes   []uint64
}

func runSemEngine(t *testing.T, p *contractgen.SemProgram, fast bool) semOutcome {
	t.Helper()
	var notes []uint64
	resolver := Resolver{"sem": HostModule{
		"note": func(vm *VM, args []uint64) ([]uint64, error) {
			notes = append(notes, args[0])
			return nil, nil
		},
	}}
	inst, err := Instantiate(p.Module, resolver)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	var vm *VM
	if fast {
		vm = NewFastVM(inst, Compile(inst.module))
	} else {
		vm = NewVM(inst)
	}
	res, err := vm.Invoke("run")
	out := semOutcome{result: res, memHash: memHash(inst.mem), notes: notes}
	if err != nil {
		tr, ok := AsTrap(err)
		if !ok {
			t.Fatalf("non-trap error: %v", err)
		}
		out.trap = tr.Kind
		return out
	}
	out.fuel = DefaultFuel - vm.Fuel()
	return out
}

// TestGenerativeDifferentialGate is the fast-engine acceptance gate: 1024
// seeded self-checking programs must agree between the fast and reference
// engines on traps, return values, final memory hashes, host-call
// sequences — and, on success, fuel consumed. The programs self-check, so
// a pass also means both engines computed every folded constant correctly.
func TestGenerativeDifferentialGate(t *testing.T) {
	const seeds = 1024
	compiled := 0
	for seed := int64(0); seed < seeds; seed++ {
		p := contractgen.GenerateSemantics(seed)
		ref := runSemEngine(t, p, false)
		fast := runSemEngine(t, p, true)

		if ref.trap != fast.trap {
			t.Fatalf("seed %d: trap divergence: reference %v, fast %v", seed, ref.trap, fast.trap)
		}
		if ref.trap == 0 {
			if len(ref.result) != 1 || len(fast.result) != 1 || ref.result[0] != fast.result[0] {
				t.Fatalf("seed %d: result divergence: %v vs %v", seed, ref.result, fast.result)
			}
			if ref.result[0] != p.Return {
				t.Fatalf("seed %d: both engines returned %#x, generator predicted %#x", seed, ref.result[0], p.Return)
			}
			if ref.fuel != fast.fuel {
				t.Fatalf("seed %d: fuel divergence: reference %d, fast %d", seed, ref.fuel, fast.fuel)
			}
		}
		if ref.memHash != fast.memHash {
			t.Fatalf("seed %d: final memory divergence", seed)
		}
		if len(ref.notes) != len(fast.notes) {
			t.Fatalf("seed %d: host-call sequence length divergence: %d vs %d", seed, len(ref.notes), len(fast.notes))
		}
		for i := range ref.notes {
			if ref.notes[i] != fast.notes[i] {
				t.Fatalf("seed %d: host-call divergence at %d: %#x vs %#x", seed, i, ref.notes[i], fast.notes[i])
			}
		}

		// The gate is vacuous if the IR compiler rejects everything.
		prog := Compile(p.Module)
		if idx, ok := p.Module.ExportedFunc("run"); ok && prog.funcs[idx] != nil {
			compiled++
		}
	}
	if compiled < seeds*9/10 {
		t.Fatalf("only %d/%d generated programs compiled to IR; gate is not exercising the fast engine", compiled, seeds)
	}
}

// TestFuelTrapsMatchTreeWalker starves generated programs at seeded fuel
// budgets below their full cost, so the meter runs dry inside fused and
// unfused instructions alike: both engines must raise the same trap —
// kind, function and source pc — and leave the same fuel behind.
func TestFuelTrapsMatchTreeWalker(t *testing.T) {
	budgets := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 128; seed++ {
		p := contractgen.GenerateSemantics(seed)
		prog := Compile(p.Module)
		run := func(fast bool, fuel int64) (int64, error) {
			inst, err := Instantiate(p.Module, Resolver{"sem": HostModule{
				"note": func(*VM, []uint64) ([]uint64, error) { return nil, nil },
			}})
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}
			vm := NewVM(inst)
			if fast {
				vm = NewFastVM(inst, prog)
			}
			vm.SetFuel(fuel)
			_, err = vm.Invoke("run")
			return vm.Fuel(), err
		}
		if left, err := run(false, DefaultFuel); err == nil {
			cost := DefaultFuel - left
			for i := 0; i < 8; i++ {
				fuel := budgets.Int63n(cost)
				refLeft, refErr := run(false, fuel)
				fastLeft, fastErr := run(true, fuel)
				if !IsTrap(refErr, TrapFuelExhausted) || fastErr == nil ||
					refErr.Error() != fastErr.Error() || refLeft != fastLeft {
					t.Fatalf("seed %d fuel %d: tree-walker %v (fuel %d), fast %v (fuel %d)",
						seed, fuel, refErr, refLeft, fastErr, fastLeft)
				}
			}
		}
	}
}
