package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/eos"
	"repro/internal/failure"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// illTyped is one deploy-rejection case: a module whose only function body
// the IR compiler rejects at the named error site.
type illTyped struct {
	name string
	want string // substring of exec.Compile's error
	mod  *wasm.Module
}

// illTypedModule wraps body (its terminating end appended) as the single
// exported function of a module with a table, a memory and one global,
// returning results.
func illTypedModule(results []wasm.ValType, body ...wasm.Instr) *wasm.Module {
	m := &wasm.Module{FuncNames: map[uint32]string{}}
	ti := m.AddType(wasm.FuncType{Results: results})
	m.Funcs = []uint32{ti}
	m.Code = []wasm.Code{{Body: append(body, wasm.End())}}
	m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: 1}}}
	m.Memories = []wasm.MemType{{Limits: wasm.Limits{Min: 1}}}
	m.Globals = []wasm.Global{{Type: wasm.GlobalType{Type: wasm.I32, Mutable: true}, Init: []wasm.Instr{wasm.I32Const(0)}}}
	m.Exports = []wasm.Export{{Name: "apply", Kind: wasm.ExternalFunc, Index: 0}}
	return m
}

// illTypedCorpus has one case per error site of the IR compiler and of
// the module-level checks around it.
// Several are well-formed to wasm.Validate (the compiler's stack typing
// is stricter); "unclosed-frames" cannot even be encoded and decoded,
// since the decoder balances bodies itself, so only in-memory modules —
// an instrumenter's output, say — reach that site.
func illTypedCorpus() []illTyped {
	i32 := []wasm.ValType{wasm.I32}
	deep := make([]wasm.Instr, 1<<16+1)
	for i := range deep {
		deep[i] = wasm.I32Const(0)
	}
	badType := illTypedModule(nil)
	badType.Funcs[0] = 7
	badImport := illTypedModule(nil)
	badImport.Imports = []wasm.Import{{Module: "env", Name: "f", Kind: wasm.ExternalFunc, TypeIndex: 7}}
	badImport.Exports[0].Index = 1
	noBody := illTypedModule(nil)
	noBody.Code = nil
	return []illTyped{
		{"stack-underflow", "stack underflow", illTypedModule(nil, wasm.Op0(wasm.OpI32Add))},
		{"branch-depth", "branch depth 1 exceeds nesting 1", illTypedModule(nil, wasm.Block(), wasm.Br(1), wasm.End())},
		{"br_table-depth", "br_table depth 1 exceeds nesting 1",
			illTypedModule(nil, wasm.Block(), wasm.I32Const(0), wasm.BrTable([]uint32{1}, 0), wasm.End())},
		{"local-range", "local 3 out of range", illTypedModule(nil, wasm.LocalGet(3), wasm.Drop())},
		{"global-range", "global 2 out of range", illTypedModule(nil, wasm.GlobalGet(2), wasm.Drop())},
		{"call-indirect-type-range", "call_indirect type 7 out of range",
			illTypedModule(nil, wasm.I32Const(0), wasm.CallIndirect(7))},
		{"call-target-range", "function index 9 out of range", illTypedModule(nil, wasm.Call(9))},
		{"func-type-range", "type index 7 out of range", badType},
		{"import-type-range", `import "env"."f": type index 7 out of range`, badImport},
		{"missing-body", "0 function bodies for 1 functions", noBody},
		{"unclosed-frames", "1 unclosed control frames", illTypedModule(nil, wasm.Block(), wasm.Block())},
		{"else-outside-if", "else outside if", illTypedModule(nil, wasm.Else())},
		{"else-without-if", "else without matching if", illTypedModule(nil, wasm.Block(), wasm.Else(), wasm.End())},
		{"merge-height", "inconsistent stack heights at merge",
			illTypedModule(i32, wasm.I32Const(1), wasm.I32Const(0), wasm.IfTyped(wasm.I32), wasm.I32Const(2), wasm.End())},
		{"stack-bound", "operand stack bound 65537 too large", illTypedModule(nil, deep...)},
	}
}

// checkedIn reports whether a case's encoding belongs in the checked-in
// seed corpus: it must decode (else it seeds nothing past the decoder),
// and "stack-bound" is left to f.Add, its binary being 128 KiB.
func (c illTyped) checkedIn() ([]byte, bool) {
	bin, err := wasm.Encode(c.mod)
	if err != nil || c.name == "stack-bound" {
		return nil, false
	}
	if _, err := wasm.Decode(bin); err != nil {
		return nil, false
	}
	return bin, true
}

// TestDeployRejectsIllTyped pins each case to its compiler error site and
// requires every deploy path to refuse it with a classified error rather
// than install it or panic: DeployModule and DeployWasm with
// "chain: deploy <name>: …" (the account stays empty), and fuzz.New with
// failure.Decode.
func TestDeployRejectsIllTyped(t *testing.T) {
	for _, c := range illTypedCorpus() {
		t.Run(c.name, func(t *testing.T) {
			_, cerr := exec.Compile(c.mod)
			if cerr == nil || !strings.Contains(cerr.Error(), c.want) {
				t.Fatalf("Compile = %v, want an error containing %q", cerr, c.want)
			}
			bc := chain.New()
			err := bc.DeployModule(victimName, c.mod, nil, nil)
			if want := fmt.Sprintf("chain: deploy %s: %v", victimName, cerr); err == nil || err.Error() != want {
				t.Fatalf("DeployModule = %v, want %q", err, want)
			}
			if a := bc.Account(victimName); a != nil && a.Module != nil {
				t.Fatal("DeployModule installed a rejected module")
			}
			if bin, err := wasm.Encode(c.mod); err == nil {
				err := chain.New().DeployWasm(victimName, bin, nil)
				if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("chain: deploy %s: ", victimName)) {
					t.Fatalf("DeployWasm = %v, want a chain: deploy error", err)
				}
			}
			_, err = New(c.mod, &abi.ABI{}, Config{Iterations: 1})
			if failure.ClassOf(err) != failure.Decode {
				t.Fatalf("fuzz.New = %v (class %v), want a %v failure", err, failure.ClassOf(err), failure.Decode)
			}
		})
	}
}

// FuzzDeploy feeds module binaries to DeployWasm: it must never panic,
// and a module that decodes and validates but does not compile must be
// refused with the compiler's error.
func FuzzDeploy(f *testing.F) {
	for _, c := range illTypedCorpus() {
		if bin, err := wasm.Encode(c.mod); err == nil {
			f.Add(bin)
		}
	}
	name := eos.MustName("target")
	f.Fuzz(func(t *testing.T, data []byte) {
		err := chain.New().DeployWasm(name, data, nil)
		m, derr := wasm.Decode(data)
		if derr != nil || wasm.Validate(m) != nil {
			if err == nil {
				t.Fatal("DeployWasm accepted a module that does not decode and validate")
			}
			return
		}
		if _, cerr := exec.Compile(m); cerr != nil {
			if err == nil || !strings.Contains(err.Error(), cerr.Error()) {
				t.Fatalf("DeployWasm = %v, want the compile error %v", err, cerr)
			}
		}
	})
}

// TestFuzzDeploySeedCorpus keeps the checked-in corpus in sync with
// illTypedCorpus. Regenerate with:
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFuzzDeploySeedCorpus ./internal/fuzz/
func TestFuzzDeploySeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDeploy")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range illTypedCorpus() {
		bin, ok := c.checkedIn()
		if !ok {
			continue
		}
		path := filepath.Join(dir, c.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", bin)
		if update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus entry missing (regenerate with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != want {
			t.Errorf("seed corpus entry %s is stale (regenerate with UPDATE_FUZZ_CORPUS=1)", c.name)
		}
	}
}
