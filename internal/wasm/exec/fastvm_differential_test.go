package exec

import (
	"math/rand"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/wasm"
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

func runSemEngine(t *testing.T, p *contractgen.SemProgram, prog *Program) semOutcome {
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
	vm := NewVM(inst, prog)
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

// TestGenerativeDifferentialGate is the engine acceptance gate: 1024
// seeded self-checking programs must compile, and agree between the
// compiled and reference engines on traps, return values, final memory
// hashes, host-call sequences — and, on success, fuel consumed. The
// programs self-check, so a pass also means both engines computed every
// folded constant correctly.
func TestGenerativeDifferentialGate(t *testing.T) {
	const seeds = 1024
	for seed := int64(0); seed < seeds; seed++ {
		p := contractgen.GenerateSemantics(seed)
		compiled, reference := programs(t, p.Module)
		ref := runSemEngine(t, p, reference)
		fast := runSemEngine(t, p, compiled)

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
		compiled, reference := programs(t, p.Module)
		run := func(fast bool, fuel int64) (int64, error) {
			inst, err := Instantiate(p.Module, Resolver{"sem": HostModule{
				"note": func(*VM, []uint64) ([]uint64, error) { return nil, nil },
			}})
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}
			vm := NewVM(inst, reference)
			if fast {
				vm = NewVM(inst, compiled)
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

// hotModule builds the throughput workload: a single exported function
// "hot" looping iters times over a mix of local arithmetic, fused-shape
// operand sequences, and memory traffic — the instruction profile of a
// busy contract action, not a synthetic single-opcode spin.
func hotModule(tb testing.TB, iters int64) *wasm.Module {
	tb.Helper()
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
		tb.Fatalf("hot module invalid: %v", err)
	}
	return m
}

// hotFuel is a budget the hot module never exhausts.
const hotFuel = int64(1) << 40

// TestHotModuleAgreement runs the throughput workload at its benchmark
// size on both engines: same result, same fuel, same final memory.
func TestHotModuleAgreement(t *testing.T) {
	tw := newTwin(t, hotModule(t, 400_000), nil)
	tw.fuel = hotFuel
	if _, err := tw.invoke("hot"); err != nil {
		t.Fatalf("hot: %v", err)
	}
}

// BenchmarkEngine times the hot module on each program, reporting retired
// instructions (fuel) per second. It is a measurement, not a gate: on a
// shared 2-core box the compiled engine's lead over the reference has
// ranged from 1.84x to 4.9x between runs.
func BenchmarkEngine(b *testing.B) {
	m := hotModule(b, 10_000)
	compiled, reference := programs(b, m)
	for _, e := range []struct {
		name string
		prog *Program
	}{{"compiled", compiled}, {"reference", reference}} {
		b.Run(e.name, func(b *testing.B) {
			inst, err := Instantiate(m, nil)
			if err != nil {
				b.Fatal(err)
			}
			var retired int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm := NewVM(inst, e.prog)
				vm.SetFuel(hotFuel)
				if _, err := vm.Invoke("hot"); err != nil {
					b.Fatal(err)
				}
				retired += hotFuel - vm.Fuel()
			}
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}
