package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// reference.go keeps the tree-walking interpreter a test oracle. Every
// deployed module runs the program exec.Compile builds; exec.Reference
// builds the program that runs it on the tree-walker instead, for
// differential tests only. So outside internal/wasm/exec, only _test.go
// files may reference exec.Reference — the production binary then has no
// path that reaches the tree-walker.

// execImport is the import path of the execution engine.
const execImport = "repro/internal/wasm/exec"

// checkReferenceUse walks every Go package under root (testdata and
// hidden directories excluded) and flags references to exec.Reference in
// non-test files outside internal/wasm/exec.
func checkReferenceUse(root string) ([]string, error) {
	execDir := filepath.Join(root, filepath.FromSlash("internal/wasm/exec"))
	var diags []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == execDir || path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == execImport {
				local = "exec"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" || local == "_" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var at token.Pos
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == local && n.Sel.Name == "Reference" {
					at = n.Pos()
				}
			case *ast.Ident:
				if local == "." && n.Name == "Reference" {
					at = n.Pos()
				}
			}
			if at.IsValid() {
				diags = append(diags, fmt.Sprintf(
					"%s: exec.Reference outside a test: the tree-walker is a test oracle; production runs the program exec.Compile builds",
					fset.Position(at)))
			}
			return true
		})
		return nil
	})
	return diags, err
}
