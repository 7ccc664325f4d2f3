package fuzz

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/static/absint"
	"repro/internal/wasm"
)

// TestJobModuleCollectable pins that a job's modules live exactly as long
// as the job. Once its fuzzer and chains are dropped, the original module
// (which the verdict engine compiled to IR) and the instrumented module
// (which every chain of the job executed on its compiled program) must be
// collectable. A process-global program cache keyed by module identity
// would keep both alive for the life of the process — in the analysis
// daemon, every module it has ever analyzed.
func TestJobModuleCollectable(t *testing.T) {
	orig, instr := runDroppedJob(t)
	for i := 0; i < 4 && (orig.Value() != nil || instr.Value() != nil); i++ {
		runtime.GC()
	}
	if orig.Value() != nil {
		t.Error("original module still reachable after the job was dropped")
	}
	if instr.Value() != nil {
		t.Error("instrumented module still reachable after the job was dropped")
	}
}

// runDroppedJob analyzes and fuzzes one contract — verdict engine, concolic
// loop and scenario chains — and returns only weak pointers to its modules.
func runDroppedJob(t *testing.T) (orig, instr weak.Pointer[wasm.Module]) {
	t.Helper()
	c, err := contractgen.Generate(contractgen.RandomSpec(contractgen.ClassMissAuth, true, rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	actions := make([]eos.Name, 0, len(c.ABI.Actions))
	for _, a := range c.ABI.Actions {
		actions = append(actions, a.Name)
	}
	absint.Analyze(c.Module, actions)
	f, err := New(c.Module, c.ABI, Config{Iterations: 30, SolverConflicts: 5_000, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return weak.Make(c.Module), weak.Make(f.instr.Module)
}
