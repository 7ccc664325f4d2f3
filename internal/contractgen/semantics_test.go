package contractgen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// runSem executes p's "run" export on both engines — the compiled program
// production runs and the tree-walking reference — failing the test
// unless they agree on result, error, fuel and note sequence. It returns
// the result, the observed note sequence, and any error.
func runSem(t *testing.T, p *SemProgram) (uint64, []uint64, error) {
	t.Helper()
	type outcome struct {
		res   []uint64
		notes []uint64
		err   string
		fuel  int64
	}
	var outs [2]outcome
	var runErr error
	for i, build := range []func(*wasm.Module) (*exec.Program, error){exec.Compile, exec.Reference} {
		prog, err := build(p.Module)
		if err != nil {
			t.Fatalf("program: %v", err)
		}
		var notes []uint64
		resolver := exec.Resolver{"sem": exec.HostModule{
			"note": func(vm *exec.VM, args []uint64) ([]uint64, error) {
				notes = append(notes, args[0])
				return nil, nil
			},
		}}
		inst, err := exec.Instantiate(p.Module, resolver)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		vm := exec.NewVM(inst, prog)
		res, err := vm.Invoke("run")
		outs[i] = outcome{res: res, notes: notes, fuel: vm.Fuel()}
		if err != nil {
			outs[i].err, runErr = err.Error(), err
		}
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("engines diverged:\n compiled:  %+v\n reference: %+v", outs[0], outs[1])
	}
	if runErr != nil {
		return 0, outs[0].notes, runErr
	}
	if len(outs[0].res) != 1 {
		t.Fatalf("run returned %d results", len(outs[0].res))
	}
	return outs[0].res[0], outs[0].notes, nil
}

// TestSemanticsDeterministicSeed: the generator is a pure function of its
// seed — same seed, byte-identical encoded module and identical oracle.
func TestSemanticsDeterministicSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 12345, -9} {
		a := GenerateSemantics(seed)
		b := GenerateSemantics(seed)
		ba, err := wasm.Encode(a.Module)
		if err != nil {
			t.Fatalf("seed %d: encode a: %v", seed, err)
		}
		bb, err := wasm.Encode(b.Module)
		if err != nil {
			t.Fatalf("seed %d: encode b: %v", seed, err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("seed %d: modules differ across generations", seed)
		}
		if a.Return != b.Return || len(a.Notes) != len(b.Notes) || a.Checks != b.Checks {
			t.Fatalf("seed %d: oracles differ across generations", seed)
		}
	}
	if ra, _ := wasm.Encode(GenerateSemantics(3).Module); true {
		rb, _ := wasm.Encode(GenerateSemantics(4).Module)
		if bytes.Equal(ra, rb) {
			t.Fatal("distinct seeds produced identical modules")
		}
	}
}

// TestSemanticsSweep: a 256-seed sweep — every generated module validates,
// decode/encode round-trips, and its self-checks pass on both engines
// with the predicted return value and note sequence. This guards generator
// bugs from masquerading as engine bugs in the differential gate.
func TestSemanticsSweep(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		p := GenerateSemantics(seed)
		if p.Checks == 0 {
			t.Fatalf("seed %d: no self-checks generated", seed)
		}
		if err := wasm.Validate(p.Module); err != nil {
			t.Fatalf("seed %d: generated module invalid: %v", seed, err)
		}
		bin, err := wasm.Encode(p.Module)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		if _, err := wasm.Decode(bin); err != nil {
			t.Fatalf("seed %d: decode round-trip: %v", seed, err)
		}
		got, notes, err := runSem(t, p)
		if err != nil {
			t.Fatalf("seed %d: self-check failed: %v", seed, err)
		}
		if got != p.Return {
			t.Fatalf("seed %d: return %#x, predicted %#x", seed, got, p.Return)
		}
		if len(notes) != len(p.Notes) {
			t.Fatalf("seed %d: %d notes, predicted %d", seed, len(notes), len(p.Notes))
		}
		for i := range notes {
			if notes[i] != p.Notes[i] {
				t.Fatalf("seed %d: note %d = %#x, predicted %#x", seed, i, notes[i], p.Notes[i])
			}
		}
	}
}
