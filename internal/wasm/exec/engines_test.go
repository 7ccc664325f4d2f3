package exec

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/wasm"
)

// programs builds both programs of m: the compiled one production runs,
// and the tree-walking reference it is checked against.
func programs(tb testing.TB, m *wasm.Module) (compiled, reference *Program) {
	tb.Helper()
	compiled, err := Compile(m)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	reference, err = Reference(m)
	if err != nil {
		tb.Fatalf("Reference: %v", err)
	}
	return compiled, reference
}

// twin runs one module on both programs, each on its own instance, so
// every semantics test exercises the production engine and the oracle
// from the same case.
type twin struct {
	tb    testing.TB
	insts [2]*Instance // compiled, reference
	progs [2]*Program
	fuel  int64 // budget of every run
}

func newTwin(tb testing.TB, m *wasm.Module, r Resolver) *twin {
	tb.Helper()
	tw := &twin{tb: tb, fuel: DefaultFuel}
	tw.progs[0], tw.progs[1] = programs(tb, m)
	for i := range tw.insts {
		inst, err := Instantiate(m, r)
		if err != nil {
			tb.Fatalf("Instantiate: %v", err)
		}
		tw.insts[i] = inst
	}
	return tw
}

// run applies call to a fresh VM over each instance and fails the test
// unless both engines return the same results and error, leave the same
// fuel, and leave memory and globals in the same state. It returns the
// compiled engine's outcome.
func (tw *twin) run(call func(*VM) ([]uint64, error)) ([]uint64, error) {
	tw.tb.Helper()
	var (
		res  [2][]uint64
		errs [2]error
		fuel [2]int64
	)
	for i, inst := range tw.insts {
		vm := NewVM(inst, tw.progs[i])
		vm.SetFuel(tw.fuel)
		res[i], errs[i] = call(vm)
		fuel[i] = vm.Fuel()
	}
	if a, b := errText(errs[0]), errText(errs[1]); a != b {
		tw.tb.Fatalf("error divergence: compiled %q, reference %q", a, b)
	}
	if !slices.Equal(res[0], res[1]) {
		tw.tb.Fatalf("result divergence: compiled %#x, reference %#x", res[0], res[1])
	}
	if fuel[0] != fuel[1] {
		tw.tb.Fatalf("fuel divergence: compiled left %d, reference %d", fuel[0], fuel[1])
	}
	if !bytes.Equal(tw.insts[0].mem, tw.insts[1].mem) {
		tw.tb.Fatalf("memory divergence")
	}
	if !slices.Equal(tw.insts[0].globals, tw.insts[1].globals) {
		tw.tb.Fatalf("global divergence: compiled %#x, reference %#x", tw.insts[0].globals, tw.insts[1].globals)
	}
	return res[0], errs[0]
}

// invoke calls the named export on both engines (see run).
func (tw *twin) invoke(name string, args ...uint64) ([]uint64, error) {
	tw.tb.Helper()
	return tw.run(func(vm *VM) ([]uint64, error) { return vm.Invoke(name, args...) })
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// trapKind is err's trap kind, 0 for success.
func trapKind(err error) TrapKind {
	if tr, ok := AsTrap(err); ok {
		return tr.Kind
	}
	return 0
}
