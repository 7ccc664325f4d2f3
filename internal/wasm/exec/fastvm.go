package exec

import (
	"fmt"

	"repro/internal/wasm"
)

// This file implements the fast execution core's dispatch loop: a dense
// switch over the decoded irInstr stream of ir.go. Branch targets, block
// arities and immediates are pre-resolved, the operand stack is a flat
// pre-sized slice indexed by an integer, and fuel is charged per decoded
// instruction (superinstructions carry the summed cost of the source
// instructions they replace), so successful executions consume exactly
// the fuel the reference tree-walker would.

// FastObserver receives one callback per executed decoded instruction:
// the function index, the decoded-stream pc, and the fuel charged. Setting
// an observer selects the tracing variant of the dispatch loop; with no
// observer the loop runs bare.
type FastObserver func(funcIndex uint32, pc int, cost int)

// NewFastVM returns a VM over inst that executes through prog, the
// decoded-IR program compiled from inst's module. Function bodies the
// conservative IR compiler rejects fall back to the reference tree-walker
// transparently, so observable behaviour is identical to NewVM in every
// case; a nil prog runs everything on the tree-walker.
func NewFastVM(inst *Instance, prog *Program) *VM {
	vm := NewVM(inst)
	vm.prog = prog
	return vm
}

// Fast reports whether this VM dispatches through the decoded-IR engine.
func (vm *VM) Fast() bool { return vm.prog != nil }

// SetFastObserver installs (or, with nil, removes) the per-instruction
// tracing hook of the fast engine.
func (vm *VM) SetFastObserver(obs FastObserver) { vm.fastObs = obs }

// fastCompiled returns the compiled body for f, or nil when f must run on
// the reference interpreter.
func (vm *VM) fastCompiled(f *funcDef) *irFunc {
	if vm.prog == nil || int(f.index) >= len(vm.prog.funcs) {
		return nil
	}
	return vm.prog.funcs[f.index]
}

func (vm *VM) fastExec(f *funcDef, fn *irFunc, args []uint64) (results []uint64, err error) {
	locals := make([]uint64, fn.nLocals)
	copy(locals, args)
	st := make([]uint64, fn.maxStack)
	sp := 0

	defer func() {
		if r := recover(); r != nil {
			// Mirrors the reference interpreter: residual malformed-body
			// panics become host-error traps instead of crashing.
			wrapped := fmt.Errorf("interpreter panic: %v", r)
			if e, ok := r.(error); ok {
				wrapped = fmt.Errorf("interpreter panic: %w", e)
			}
			results = nil
			err = &Trap{Kind: TrapHostError, FuncIndex: f.index, Wrapped: wrapped}
		}
	}()

	code := fn.code
	obs := vm.fastObs
	for pc := 0; pc < len(code); {
		in := &code[pc]
		if obs != nil {
			obs(f.index, pc, int(in.cost))
		}
		if vm.fuel -= int64(in.cost); vm.fuel < 0 {
			// The tree-walker charges the represented (consecutive) source
			// instructions one at a time and traps on the first it cannot
			// pay for, leaving the meter at -1.
			paid := int(vm.fuel) + int(in.cost)
			vm.fuel = -1
			return nil, &Trap{Kind: TrapFuelExhausted, FuncIndex: f.index, PC: int(fn.src[pc]) + paid}
		}
		switch in.op {
		case irTick:
			// fuel-only bookkeeping

		case irUnreachable:
			return nil, &Trap{Kind: TrapUnreachable, FuncIndex: f.index, PC: fn.trapPC(pc)}

		case irBr:
			if in.x == 1 {
				st[in.b] = st[sp-1]
			}
			sp = int(in.b) + int(in.x)
			pc = int(in.a)
			continue

		case irBrIf:
			sp--
			if st[sp] != 0 {
				if in.x == 1 {
					st[in.b] = st[sp-1]
				}
				sp = int(in.b) + int(in.x)
				pc = int(in.a)
				continue
			}

		case irBrIfZ:
			sp--
			if st[sp] == 0 {
				sp = int(in.b)
				pc = int(in.a)
				continue
			}

		case irBrTable:
			sp--
			tbl := fn.tables[in.a]
			i := len(tbl) - 1
			if v := st[sp]; uint64(uint32(v)) < uint64(i) {
				i = int(uint32(v))
			}
			t := &tbl[i]
			if t.keep == 1 {
				st[t.unwind] = st[sp-1]
			}
			sp = int(t.unwind) + int(t.keep)
			pc = int(t.pc)
			continue

		case irReturn:
			n := int(in.x)
			if n == 0 || sp < n {
				return nil, nil
			}
			out := make([]uint64, n)
			copy(out, st[sp-n:sp])
			return out, nil

		case irCall:
			callee := &vm.inst.funcs[in.a]
			n := len(callee.typ.Params)
			cargs := make([]uint64, n)
			copy(cargs, st[sp-n:sp])
			sp -= n
			res, cerr := vm.call(callee, cargs)
			if cerr != nil {
				return nil, cerr
			}
			copy(st[sp:], res)
			sp += len(res)

		case irCallInd:
			sp--
			ti := st[sp]
			if int(ti) >= len(vm.inst.table) {
				return nil, &Trap{Kind: TrapUndefinedElement, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			fi := vm.inst.table[ti]
			if fi < 0 {
				return nil, &Trap{Kind: TrapUndefinedElement, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			if vm.prog.funcCanon[fi] != vm.prog.typeCanon[in.a] {
				return nil, &Trap{Kind: TrapIndirectCallTypeMismatch, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			callee := &vm.inst.funcs[fi]
			n := len(callee.typ.Params)
			cargs := make([]uint64, n)
			copy(cargs, st[sp-n:sp])
			sp -= n
			res, cerr := vm.call(callee, cargs)
			if cerr != nil {
				return nil, cerr
			}
			copy(st[sp:], res)
			sp += len(res)

		case irDrop:
			sp--

		case irSelect:
			c, b, a := st[sp-1], st[sp-2], st[sp-3]
			sp -= 2
			if c != 0 {
				st[sp-1] = a
			} else {
				st[sp-1] = b
			}

		case irLocalGet:
			st[sp] = locals[in.a]
			sp++
		case irLocalSet:
			sp--
			locals[in.a] = st[sp]
		case irLocalTee:
			locals[in.a] = st[sp-1]
		case irGlobalGet:
			st[sp] = vm.inst.globals[in.a]
			sp++
		case irGlobalSet:
			sp--
			vm.inst.globals[in.a] = st[sp]

		case irConst:
			st[sp] = in.imm
			sp++

		case irMemSize:
			st[sp] = uint64(uint32(len(vm.inst.mem) / PageSize))
			sp++
		case irMemGrow:
			st[sp-1] = uint64(uint32(vm.inst.grow(uint32(st[sp-1]))))

		case irLoad:
			mem := vm.inst.mem
			addr := uint64(uint32(st[sp-1])) + uint64(in.b)
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			st[sp-1] = loadVal(wasm.Opcode(in.x), mem[addr:end])

		case irStore:
			mem := vm.inst.mem
			val := st[sp-1]
			addr := uint64(uint32(st[sp-2])) + uint64(in.b)
			sp -= 2
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			storeVal(wasm.Opcode(in.x), mem[addr:end], val)

		case irConstStore:
			mem := vm.inst.mem
			addr := uint64(uint32(st[sp-1])) + uint64(in.b)
			sp--
			end := addr + uint64(in.a)
			if end > uint64(len(mem)) {
				return nil, &Trap{Kind: TrapMemoryOutOfBounds, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			storeVal(wasm.Opcode(in.x), mem[addr:end], in.imm)

		case irNumeric:
			w := st[:sp]
			if _, k := applyNumeric(wasm.Opcode(in.x), &w); k != 0 {
				return nil, &Trap{Kind: k, FuncIndex: f.index, PC: fn.trapPC(pc)}
			}
			sp = len(w)

		case irI32Add:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(st[sp]))
		case irI32Sub:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) - uint32(st[sp]))
		case irI32Mul:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) * uint32(st[sp]))
		case irI32And:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) & uint32(st[sp]))
		case irI32Or:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) | uint32(st[sp]))
		case irI32Xor:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) ^ uint32(st[sp]))
		case irI32Shl:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) << (uint32(st[sp]) & 31))
		case irI32ShrS:
			sp--
			st[sp-1] = uint64(uint32(int32(st[sp-1]) >> (uint32(st[sp]) & 31)))
		case irI32ShrU:
			sp--
			st[sp-1] = uint64(uint32(st[sp-1]) >> (uint32(st[sp]) & 31))
		case irI32Eq:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) == uint32(st[sp]))
		case irI32Ne:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) != uint32(st[sp]))
		case irI32LtS:
			sp--
			st[sp-1] = b2u(int32(st[sp-1]) < int32(st[sp]))
		case irI32LtU:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) < uint32(st[sp]))
		case irI32GtS:
			sp--
			st[sp-1] = b2u(int32(st[sp-1]) > int32(st[sp]))
		case irI32GtU:
			sp--
			st[sp-1] = b2u(uint32(st[sp-1]) > uint32(st[sp]))
		case irI32Eqz:
			st[sp-1] = b2u(uint32(st[sp-1]) == 0)

		case irI64Add:
			sp--
			st[sp-1] += st[sp]
		case irI64Sub:
			sp--
			st[sp-1] -= st[sp]
		case irI64Mul:
			sp--
			st[sp-1] *= st[sp]
		case irI64And:
			sp--
			st[sp-1] &= st[sp]
		case irI64Or:
			sp--
			st[sp-1] |= st[sp]
		case irI64Xor:
			sp--
			st[sp-1] ^= st[sp]
		case irI64Shl:
			sp--
			st[sp-1] <<= st[sp] & 63
		case irI64ShrS:
			sp--
			st[sp-1] = uint64(int64(st[sp-1]) >> (st[sp] & 63))
		case irI64ShrU:
			sp--
			st[sp-1] >>= st[sp] & 63
		case irI64Eq:
			sp--
			st[sp-1] = b2u(st[sp-1] == st[sp])
		case irI64Ne:
			sp--
			st[sp-1] = b2u(st[sp-1] != st[sp])
		case irI64LtS:
			sp--
			st[sp-1] = b2u(int64(st[sp-1]) < int64(st[sp]))
		case irI64LtU:
			sp--
			st[sp-1] = b2u(st[sp-1] < st[sp])
		case irI64GtS:
			sp--
			st[sp-1] = b2u(int64(st[sp-1]) > int64(st[sp]))
		case irI64GtU:
			sp--
			st[sp-1] = b2u(st[sp-1] > st[sp])
		case irI64Eqz:
			st[sp-1] = b2u(st[sp-1] == 0)

		case irGetGetAddI32:
			st[sp] = uint64(uint32(locals[in.a]) + uint32(locals[in.b]))
			sp++
		case irGetGetAddI64:
			st[sp] = locals[in.a] + locals[in.b]
			sp++
		case irConstAddI32:
			st[sp-1] = uint64(uint32(st[sp-1]) + uint32(in.imm))
		case irConstAddI64:
			st[sp-1] += in.imm

		default:
			return nil, &Trap{Kind: TrapHostError, FuncIndex: f.index, PC: fn.trapPC(pc),
				Wrapped: fmt.Errorf("invalid decoded opcode %d", in.op)}
		}
		pc++
	}
	// Unreachable: compiled bodies always end in irReturn.
	return nil, nil
}

// trapPC is the source pc — the coordinate the tree-walker reports traps
// in — of a trap raised by the decoded instruction at pc. A fused
// instruction represents consecutive source instructions, and only the
// last of them can trap.
func (fn *irFunc) trapPC(pc int) int { return int(fn.src[pc]) + int(fn.code[pc].cost) - 1 }

// b2u converts a comparison result to the Wasm boolean encoding.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
