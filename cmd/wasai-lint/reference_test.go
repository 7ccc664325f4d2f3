package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReferenceUseOnlyInTests lints a fixture module: a production file
// calling exec.Reference (plainly and through an import alias) is flagged;
// the same call in a _test.go file, in package exec itself, or under
// testdata is not, and exec.Compile is never flagged.
func TestReferenceUseOnlyInTests(t *testing.T) {
	root := t.TempDir()
	use := func(alias, expr string) string {
		return fmt.Sprintf("package a\n\nimport %s\"repro/internal/wasm/exec\"\n\nvar _ = %s\n", alias, expr)
	}
	files := map[string]string{
		"a/bad.go":                   use("", "exec.Reference"),
		"a/alias.go":                 use("x ", "x.Reference"),
		"a/ok_test.go":               use("", "exec.Reference"),
		"a/compile.go":               use("", "exec.Compile"),
		"a/testdata/fixture.go":      use("", "exec.Reference"),
		"internal/wasm/exec/self.go": "package exec\n\nvar _ = Reference\n\nfunc Reference() {}\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := checkReferenceUse(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (bad.go, alias.go): %q", len(diags), diags)
	}
	for i, want := range []string{"alias.go:5:9", "bad.go:5:9"} {
		if !strings.Contains(diags[i], filepath.Join("a", want)) {
			t.Errorf("diagnostic %d = %q, want one at a/%s", i, diags[i], want)
		}
	}
}
