package wasm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/leb128"
	"repro/internal/wasm"
)

// decodeCorpus builds FuzzDecode's checked-in seed corpus: one realistic
// contract binary per vulnerability class, generated deterministically by
// contractgen, and the first two again carrying a "name" custom section.
// Real contract binaries exercise every section the decoder has (types,
// imports, tables, memories, data, code) where hand-written minimal seeds
// would not.
func decodeCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	entries := map[string][]byte{}
	for i, class := range contractgen.Classes {
		c, err := contractgen.Generate(contractgen.Spec{
			Class: class, Vulnerable: true, Seed: int64(10 + i),
		})
		if err != nil {
			tb.Fatalf("generate %s: %v", class, err)
		}
		bin, err := wasm.Encode(c.Module)
		if err != nil {
			tb.Fatalf("encode %s: %v", class, err)
		}
		slug := strings.ReplaceAll(strings.ToLower(class.String()), " ", "-")
		entries["contractgen-"+slug] = bin
		if i < 2 {
			c.Module.Customs = append(c.Module.Customs, nameSection(slug, c.Module.NumFuncs()))
			if bin, err = wasm.Encode(c.Module); err != nil {
				tb.Fatalf("encode named %s: %v", class, err)
			}
			entries["contractgen-"+slug+"-names"] = bin
		}
	}
	return entries
}

// nameSection builds a "name" custom section: a module-name subsection
// (id 0) and a function-name subsection (id 1) naming functions
// 0..funcs-1.
func nameSection(module string, funcs int) wasm.CustomSection {
	name := func(dst []byte, s string) []byte {
		return append(leb128.AppendUint(dst, uint64(len(s))), s...)
	}
	sub := func(dst []byte, id byte, body []byte) []byte {
		return append(leb128.AppendUint(append(dst, id), uint64(len(body))), body...)
	}
	fns := leb128.AppendUint(nil, uint64(funcs))
	for i := 0; i < funcs; i++ {
		fns = name(leb128.AppendUint(fns, uint64(i)), fmt.Sprintf("f%d", i))
	}
	data := sub(nil, 0, name(nil, module))
	return wasm.CustomSection{Name: "name", Data: sub(data, 1, fns)}
}

// TestFuzzDecodeSeedCorpus keeps the checked-in corpus in sync with the
// generator. Regenerate with:
//
//	UPDATE_FUZZ_CORPUS=1 go test -run TestFuzzDecodeSeedCorpus ./internal/wasm/
func TestFuzzDecodeSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range decodeCorpus(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
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
			t.Errorf("seed corpus entry %s is stale (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}
