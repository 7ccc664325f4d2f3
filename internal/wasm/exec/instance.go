package exec

import (
	"fmt"
	"math"

	"repro/internal/wasm"
)

// PageSize is the WebAssembly linear-memory page size.
const PageSize = 65536

// HostFunc is a native implementation of an imported function. Arguments
// arrive in declaration order as raw 64-bit values (i32 zero-extended,
// floats as IEEE bits); results are returned the same way.
type HostFunc func(vm *VM, args []uint64) ([]uint64, error)

// HostModule is a named collection of host functions, keyed by import name.
type HostModule map[string]HostFunc

// Resolver maps import module names to host modules.
type Resolver map[string]HostModule

// funcDef is a resolved entry of the function index space: what dispatch
// needs, nothing more. Names and bodies stay on the module.
type funcDef struct {
	typ   wasm.FuncType
	host  HostFunc // non-nil for imported functions
	index uint32
}

// Instance is an instantiated module: resolved functions, initialized
// memory, table and globals.
type Instance struct {
	module  *wasm.Module
	funcs   []funcDef
	globals []uint64
	table   []int32 // function indices; -1 marks an uninitialized element
	mem     []byte
	memMax  uint32 // in pages; 0 means unlimited

	// MaxCallDepth bounds recursion (default 250, matching EOSVM).
	MaxCallDepth int
}

// Instantiate links a module against the resolver and runs data/element
// segment initialization. The start function, if any, is NOT run
// automatically (EOSIO contracts do not use it); call Invoke explicitly.
func Instantiate(m *wasm.Module, r Resolver) (*Instance, error) {
	inst := &Instance{module: m, MaxCallDepth: 250}

	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternalFunc:
			hm, ok := r[imp.Module]
			if !ok {
				return nil, fmt.Errorf("exec: unresolved import module %q", imp.Module)
			}
			fn, ok := hm[imp.Name]
			if !ok {
				return nil, fmt.Errorf("exec: unresolved import %q.%q", imp.Module, imp.Name)
			}
			if int(imp.TypeIndex) >= len(m.Types) {
				return nil, fmt.Errorf("exec: import %q.%q type index out of range", imp.Module, imp.Name)
			}
			inst.funcs = append(inst.funcs, funcDef{
				typ:   m.Types[imp.TypeIndex],
				host:  fn,
				index: uint32(len(inst.funcs)),
			})
		case wasm.ExternalGlobal:
			return nil, fmt.Errorf("exec: global imports are not supported (%q.%q)", imp.Module, imp.Name)
		case wasm.ExternalMemory:
			mem := imp.Memory
			inst.mem = make([]byte, int(mem.Limits.Min)*PageSize)
			if mem.Limits.HasMax {
				inst.memMax = mem.Limits.Max
			}
		case wasm.ExternalTable:
			inst.table = newTable(imp.Table.Limits.Min)
		}
	}

	imported := len(inst.funcs)
	for i, ti := range m.Funcs {
		if int(ti) >= len(m.Types) {
			return nil, fmt.Errorf("exec: func %d type index out of range", i)
		}
		inst.funcs = append(inst.funcs, funcDef{typ: m.Types[ti], index: uint32(imported + i)})
	}

	for _, t := range m.Tables {
		inst.table = newTable(t.Limits.Min)
	}
	for _, mm := range m.Memories {
		inst.mem = make([]byte, int(mm.Limits.Min)*PageSize)
		if mm.Limits.HasMax {
			inst.memMax = mm.Limits.Max
		}
	}

	for _, g := range m.Globals {
		v, err := inst.evalConst(g.Init)
		if err != nil {
			return nil, fmt.Errorf("exec: global init: %w", err)
		}
		inst.globals = append(inst.globals, v)
	}

	for i, el := range m.Elems {
		off, err := inst.evalConst(el.Offset)
		if err != nil {
			return nil, fmt.Errorf("exec: elem %d offset: %w", i, err)
		}
		base := int(uint32(off))
		if base+len(el.Funcs) > len(inst.table) {
			return nil, fmt.Errorf("exec: elem %d writes outside table (base %d, %d funcs, table %d)", i, base, len(el.Funcs), len(inst.table))
		}
		for j, fi := range el.Funcs {
			if int(fi) >= len(inst.funcs) {
				return nil, fmt.Errorf("exec: elem %d entry %d: function %d out of range", i, j, fi)
			}
			inst.table[base+j] = int32(fi)
		}
	}

	for i, seg := range m.Data {
		off, err := inst.evalConst(seg.Offset)
		if err != nil {
			return nil, fmt.Errorf("exec: data %d offset: %w", i, err)
		}
		base := int(uint32(off))
		if base+len(seg.Data) > len(inst.mem) {
			return nil, fmt.Errorf("exec: data %d writes outside memory (base %d, %d bytes, memory %d)", i, base, len(seg.Data), len(inst.mem))
		}
		copy(inst.mem[base:], seg.Data)
	}

	return inst, nil
}

func newTable(n uint32) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

func (inst *Instance) evalConst(expr []wasm.Instr) (uint64, error) {
	if len(expr) != 1 {
		return 0, fmt.Errorf("unsupported constant expression of length %d", len(expr))
	}
	in := expr[0]
	switch in.Op {
	case wasm.OpI32Const:
		return uint64(uint32(in.I32())), nil
	case wasm.OpI64Const:
		return in.Imm, nil
	case wasm.OpF32Const, wasm.OpF64Const:
		return in.Imm, nil
	case wasm.OpGlobalGet:
		if int(in.A) >= len(inst.globals) {
			return 0, fmt.Errorf("global.get %d out of range in constant expression", in.A)
		}
		return inst.globals[in.A], nil
	default:
		return 0, fmt.Errorf("unsupported opcode %s in constant expression", in.Op.Name())
	}
}

// Module returns the underlying module.
func (inst *Instance) Module() *wasm.Module { return inst.module }

// Memory returns the linear memory backing store. Host functions may read
// and write it directly; bounds are the caller's responsibility.
func (inst *Instance) Memory() []byte { return inst.mem }

// MemSize returns the memory size in bytes.
func (inst *Instance) MemSize() int { return len(inst.mem) }

// ReadMemory copies n bytes at addr, trapping on out-of-bounds.
func (inst *Instance) ReadMemory(addr, n uint32) ([]byte, error) {
	end := uint64(addr) + uint64(n)
	if end > uint64(len(inst.mem)) {
		return nil, &Trap{Kind: TrapMemoryOutOfBounds}
	}
	out := make([]byte, n)
	copy(out, inst.mem[addr:end])
	return out, nil
}

// WriteMemory copies p into memory at addr, trapping on out-of-bounds.
func (inst *Instance) WriteMemory(addr uint32, p []byte) error {
	end := uint64(addr) + uint64(len(p))
	if end > uint64(len(inst.mem)) {
		return &Trap{Kind: TrapMemoryOutOfBounds}
	}
	copy(inst.mem[addr:end], p)
	return nil
}

// TableGet returns the function index stored at table element i, or false
// when i is out of range or the element is uninitialized.
func (inst *Instance) TableGet(i uint32) (uint32, bool) {
	if int(i) >= len(inst.table) || inst.table[i] < 0 {
		return 0, false
	}
	return uint32(inst.table[i]), true
}

// GlobalValue returns the current value of global idx.
func (inst *Instance) GlobalValue(idx uint32) (uint64, bool) {
	if int(idx) >= len(inst.globals) {
		return 0, false
	}
	return inst.globals[idx], true
}

// FuncName returns a printable name for the function index.
func (inst *Instance) FuncName(idx uint32) string {
	if name := inst.name(idx); name != "" {
		return name
	}
	return fmt.Sprintf("func[%d]", idx)
}

// name is the debug name of function idx — "module.name" for an import,
// its name-section entry otherwise — or "" when it has none. It is
// derived from the module on demand: only error messages read it.
func (inst *Instance) name(idx uint32) string {
	if int(idx) >= len(inst.funcs) {
		return ""
	}
	if imp, ok := inst.module.ImportedFunc(int(idx)); ok {
		return imp.Module + "." + imp.Name
	}
	return inst.module.FuncNames[idx]
}

// grow implements memory.grow, returning the previous size in pages or -1.
func (inst *Instance) grow(pages uint32) int32 {
	cur := uint32(len(inst.mem) / PageSize)
	if pages == 0 {
		return int32(cur)
	}
	next := uint64(cur) + uint64(pages)
	if inst.memMax != 0 && next > uint64(inst.memMax) {
		return -1
	}
	if next > 65536 { // 4GiB hard cap
		return -1
	}
	inst.mem = append(inst.mem, make([]byte, int(pages)*PageSize)...)
	return int32(cur)
}

// f32 helpers shared by the VM.
func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
