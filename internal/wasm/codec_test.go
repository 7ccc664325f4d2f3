package wasm

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// sampleModule builds a module exercising every section kind.
func sampleModule() *Module {
	m := &Module{FuncNames: map[uint32]string{}}
	tVoid := m.AddType(FuncType{})
	tBin := m.AddType(FuncType{Params: []ValType{I64, I64}, Results: []ValType{I64}})
	m.Imports = []Import{
		{Module: "env", Name: "host", Kind: ExternalFunc, TypeIndex: tVoid},
		{Module: "env", Name: "glob", Kind: ExternalGlobal, Global: GlobalType{Type: I32}},
	}
	m.Funcs = []uint32{tBin, tVoid}
	m.Code = []Code{
		{
			Locals: []LocalDecl{{Count: 2, Type: I32}, {Count: 1, Type: F64}},
			Body: []Instr{
				LocalGet(0), LocalGet(1), Op0(OpI64Add),
				I64Const(-42), Op0(OpI64Xor),
				Block(), I32Const(1), BrIf(0), End(),
				LocalGet(0),
				{Op: OpBrTable, Table: []uint32{0, 0}, A: 0},
				End(),
			},
		},
		{Body: []Instr{
			I32Const(16), Load(OpI32Load, 4), Drop(),
			I32Const(16), I64Const(7), Store(OpI64Store, 8),
			{Op: OpF32Const, Imm: 0x3f800000},
			Drop(),
			{Op: OpF64Const, Imm: 0x4000000000000000},
			Drop(),
			End(),
		}},
	}
	m.Tables = []TableType{{Limits: Limits{Min: 2, Max: 4, HasMax: true}}}
	m.Memories = []MemType{{Limits: Limits{Min: 1}}}
	m.Globals = []Global{
		{Type: GlobalType{Type: I64, Mutable: true}, Init: []Instr{I64Const(99)}},
	}
	m.Exports = []Export{
		{Name: "f", Kind: ExternalFunc, Index: 2},
		{Name: "memory", Kind: ExternalMemory, Index: 0},
	}
	m.Elems = []ElemSegment{{Offset: []Instr{I32Const(0)}, Funcs: []uint32{2, 3}}}
	m.Data = []DataSegment{{Offset: []Instr{I32Const(8)}, Data: []byte("hello")}}
	m.Customs = []CustomSection{{Name: "meta", Data: []byte{1, 2, 3}}}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleModule()
	bin, err := Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Field-by-field structural equality (FuncNames comes from the name
	// section, which sampleModule does not emit).
	back.FuncNames = m.FuncNames
	if !reflect.DeepEqual(m.Types, back.Types) {
		t.Errorf("types mismatch")
	}
	if !reflect.DeepEqual(m.Imports, back.Imports) {
		t.Errorf("imports mismatch: %+v vs %+v", m.Imports, back.Imports)
	}
	if !reflect.DeepEqual(m.Funcs, back.Funcs) {
		t.Errorf("funcs mismatch")
	}
	if !reflect.DeepEqual(m.Code, back.Code) {
		t.Errorf("code mismatch:\n%+v\n%+v", m.Code, back.Code)
	}
	if !reflect.DeepEqual(m.Tables, back.Tables) || !reflect.DeepEqual(m.Memories, back.Memories) {
		t.Errorf("tables/memories mismatch")
	}
	if !reflect.DeepEqual(m.Globals, back.Globals) {
		t.Errorf("globals mismatch")
	}
	if !reflect.DeepEqual(m.Exports, back.Exports) {
		t.Errorf("exports mismatch")
	}
	if !reflect.DeepEqual(m.Elems, back.Elems) || !reflect.DeepEqual(m.Data, back.Data) {
		t.Errorf("elems/data mismatch")
	}
	if !reflect.DeepEqual(m.Customs, back.Customs) {
		t.Errorf("customs mismatch")
	}
	// Double round trip is byte-identical (canonical encoding).
	bin2, err := Encode(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(bin) != string(bin2) {
		t.Error("encoding is not canonical")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode([]byte{0, 0, 0, 0, 1, 0, 0, 0}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
	if _, err := Decode([]byte{0x00, 0x61}); err == nil {
		t.Error("want error for truncated preamble")
	}
}

func TestDecodeTruncatedSections(t *testing.T) {
	bin, err := Encode(sampleModule())
	if err != nil {
		t.Fatal(err)
	}
	// Any truncation after the preamble must fail, never panic.
	for cut := 9; cut < len(bin); cut += 7 {
		if _, err := Decode(bin[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(bin))
		}
	}
}

func TestDecodeBitFlipsNeverPanic(t *testing.T) {
	bin, err := Encode(sampleModule())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		mut := append([]byte(nil), bin...)
		for j := 0; j < 3; j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		// Must not panic; errors are fine.
		if m, err := Decode(mut); err == nil {
			_ = Validate(m)
		}
	}
}

func TestValidateCatchesBadIndices(t *testing.T) {
	base := func() *Module {
		m := &Module{FuncNames: map[uint32]string{}}
		ti := m.AddType(FuncType{})
		m.Funcs = []uint32{ti}
		m.Code = []Code{{Body: []Instr{End()}}}
		return m
	}

	m := base()
	m.Code[0].Body = []Instr{Call(5), End()}
	if err := Validate(m); err == nil {
		t.Error("call target out of range not caught")
	}

	m = base()
	m.Code[0].Body = []Instr{LocalGet(3), Drop(), End()}
	if err := Validate(m); err == nil {
		t.Error("local index out of range not caught")
	}

	m = base()
	m.Exports = []Export{{Name: "x", Kind: ExternalFunc, Index: 9}}
	if err := Validate(m); err == nil {
		t.Error("export index out of range not caught")
	}

	m = base()
	m.Code[0].Body = []Instr{Block(), End()} // missing final end
	if err := Validate(m); err == nil {
		t.Error("unbalanced control not caught")
	}

	m = base()
	m.Code[0].Body = []Instr{I32Const(1), BrIf(4), End()}
	if err := Validate(m); err == nil {
		t.Error("branch depth not caught")
	}
}

func TestAnalyzeControl(t *testing.T) {
	body := []Instr{
		Block(),     // 0
		I32Const(1), // 1
		If(),        // 2
		Nop2(),      // 3
		Else(),      // 4
		Nop2(),      // 5
		End(),       // 6 (if)
		End(),       // 7 (block)
		If(),        // 8 -- no else
		Nop2(),      // 9
		End(),       // 10
		End(),       // 11 (function)
	}
	meta, err := AnalyzeControl(body)
	if err != nil {
		t.Fatal(err)
	}
	if meta.EndOf[0] != 7 {
		t.Errorf("EndOf[block 0] = %d", meta.EndOf[0])
	}
	if meta.EndOf[2] != 6 || meta.ElseOf[2] != 4 {
		t.Errorf("if 2: end=%d else=%d", meta.EndOf[2], meta.ElseOf[2])
	}
	if meta.EndOf[8] != 10 || meta.ElseOf[8] != 10 {
		t.Errorf("if 8 (no else): end=%d else=%d", meta.EndOf[8], meta.ElseOf[8])
	}
}

// Nop2 avoids a name clash with builder helpers in tests.
func Nop2() Instr { return Instr{Op: OpNop} }

func TestFuncTypeAt(t *testing.T) {
	m := sampleModule()
	ft, err := m.FuncTypeAt(0) // import
	if err != nil || len(ft.Params) != 0 {
		t.Errorf("import type: %v %v", ft, err)
	}
	// Index space: 0 = env.host import, 1 = first local (binary sig),
	// 2 = second local (void sig).
	ft, err = m.FuncTypeAt(1)
	if err != nil || len(ft.Params) != 2 {
		t.Errorf("local type: %v %v", ft, err)
	}
	if _, err := m.FuncTypeAt(99); err == nil {
		t.Error("out of range not caught")
	}
}

func TestInstrRoundTripQuick(t *testing.T) {
	// Property: encode+decode of a code body with random const immediates
	// is the identity.
	f := func(vals []int64) bool {
		if len(vals) > 50 {
			vals = vals[:50]
		}
		m := &Module{FuncNames: map[uint32]string{}}
		ti := m.AddType(FuncType{})
		m.Funcs = []uint32{ti}
		var body []Instr
		for _, v := range vals {
			body = append(body, I64Const(v), Drop())
			body = append(body, I32Const(int32(v)), Drop())
		}
		body = append(body, End())
		m.Code = []Code{{Body: body}}
		bin, err := Encode(m)
		if err != nil {
			return false
		}
		back, err := Decode(bin)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m.Code, back.Code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExportedFunc(t *testing.T) {
	m := sampleModule()
	idx, ok := m.ExportedFunc("f")
	if !ok || idx != 2 {
		t.Errorf("ExportedFunc = %d %v", idx, ok)
	}
	if _, ok := m.ExportedFunc("nosuch"); ok {
		t.Error("found non-existent export")
	}
}

func TestWatRendersAllSections(t *testing.T) {
	m := sampleModule()
	m.FuncNames[2] = "first"
	out := Wat(m)
	for _, want := range []string{
		"(module", "(type", "(import \"env\" \"host\" (func))",
		"(table 2 4 funcref)", "(memory 1)", "(global (;0;) (mut i64) (i64.const 99))",
		"(func (;2;) $first", "(local i32 i32 f64)",
		"(export \"f\" (func 2))", "(elem (i32.const 0) func 2 3)",
		"(data (i32.const 8) \"hello\")", "br_table",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("wat output missing %q:\n%s", want, out)
		}
	}
}

// TestDecodeNameSection feeds decodeNameSection a name-section payload
// holding a module-name subsection (id 0, skipped) and a function-name
// subsection (id 1), then a truncated copy.
func TestDecodeNameSection(t *testing.T) {
	payload := []byte{
		0x00, 0x04, 0x03, 'm', 'o', 'd', // module name "mod"
		0x01, 0x0d, 0x02, // function names: 13 bytes, two entries
		0x00, 0x05, 'a', 'p', 'p', 'l', 'y', // 0 -> "apply"
		0x02, 0x03, 'b', 'e', 't', // 2 -> "bet"
	}
	m := &Module{FuncNames: map[uint32]string{}}
	if err := decodeNameSection(m, payload); err != nil {
		t.Fatal(err)
	}
	if want := map[uint32]string{0: "apply", 2: "bet"}; !reflect.DeepEqual(m.FuncNames, want) {
		t.Errorf("FuncNames = %v, want %v", m.FuncNames, want)
	}
	if err := decodeNameSection(&Module{FuncNames: map[uint32]string{}}, payload[:len(payload)-2]); err == nil {
		t.Error("truncated name section decoded without error")
	}

	// Through Decode: the section fills FuncNames and is kept verbatim.
	sm := sampleModule()
	sm.Customs = append(sm.Customs, CustomSection{Name: "name", Data: payload})
	bin, err := Encode(sm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.FuncNames[2] != "bet" {
		t.Errorf("Decode FuncNames = %v, want 2 -> bet", back.FuncNames)
	}
}
