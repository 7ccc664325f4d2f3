package exec

import (
	"fmt"

	"repro/internal/wasm"
)

// This file is the reference tree-walker: a direct interpreter of the
// source instruction stream, kept only as the oracle the compiled engine
// (ir.go, fastvm.go) is tested against. Production never builds a
// reference program: wasai-lint rejects any reference to Reference from a
// non-test file outside this package.

// Reference returns the reference program of m: every local function runs
// on the tree-walker, with its control metadata computed here once per
// module. It is a test oracle; production programs come from Compile.
func Reference(m *wasm.Module) (*Program, error) {
	imported := m.NumImportedFuncs()
	p := &Program{meta: make([]wasm.ControlMeta, imported+len(m.Code))}
	for i := range m.Code {
		meta, err := wasm.AnalyzeControl(m.Code[i].Body)
		if err != nil {
			return nil, fmt.Errorf("exec: func %d: %w", imported+i, err)
		}
		p.meta[imported+i] = meta
	}
	return p, nil
}

// ctrlFrame is one entry of the structured-control stack.
type ctrlFrame struct {
	startPC   int
	endPC     int
	stackH    int
	isLoop    bool
	hasResult bool
}

// exec interprets the local function f, whose control metadata is meta.
func (vm *VM) exec(f *funcDef, meta *wasm.ControlMeta, args []uint64) (results []uint64, err error) {
	code := vm.inst.module.CodeFor(f.index)
	locals := make([]uint64, len(f.typ.Params)+int(code.NumLocals()))
	copy(locals, args)

	var (
		stack []uint64
		ctrl  []ctrlFrame
	)
	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	trap := func(kind TrapKind, pc int) error {
		return &Trap{Kind: kind, FuncIndex: f.index, PC: pc}
	}

	body := code.Body
	mem := func() []byte { return vm.inst.mem }

	// branchTo unwinds to the frame at relative depth d per Wasm label
	// semantics and returns the next pc.
	branchTo := func(d int) int {
		target := ctrl[len(ctrl)-1-d]
		if target.isLoop {
			// Branch to a loop re-enters at its start; loop labels take no values.
			stack = stack[:target.stackH]
			ctrl = ctrl[:len(ctrl)-d] // keep the loop frame itself
			return target.startPC + 1
		}
		var result uint64
		if target.hasResult {
			result = stack[len(stack)-1]
		}
		stack = stack[:target.stackH]
		if target.hasResult {
			stack = append(stack, result)
		}
		ctrl = ctrl[:len(ctrl)-1-d]
		return target.endPC + 1
	}

	defer func() {
		if r := recover(); r != nil {
			// Index/slice panics indicate a malformed (unvalidated) body;
			// convert to a trap rather than crashing the process. An error
			// panic value keeps its chain (errors.Is/As through the trap).
			wrapped := fmt.Errorf("interpreter panic: %v", r)
			if e, ok := r.(error); ok {
				wrapped = fmt.Errorf("interpreter panic: %w", e)
			}
			results = nil
			err = &Trap{Kind: TrapHostError, FuncIndex: f.index, Wrapped: wrapped}
		}
	}()

	pc := 0
	for pc < len(body) {
		if vm.fuel--; vm.fuel < 0 {
			return nil, trap(TrapFuelExhausted, pc)
		}
		in := body[pc]
		switch in.Op {
		case wasm.OpUnreachable:
			return nil, trap(TrapUnreachable, pc)
		case wasm.OpNop:
		case wasm.OpBlock:
			ctrl = append(ctrl, ctrlFrame{
				startPC: pc, endPC: meta.EndOf[pc], stackH: len(stack),
				hasResult: in.A != wasm.BlockTypeEmpty,
			})
		case wasm.OpLoop:
			ctrl = append(ctrl, ctrlFrame{
				startPC: pc, endPC: meta.EndOf[pc], stackH: len(stack),
				isLoop: true, hasResult: in.A != wasm.BlockTypeEmpty,
			})
		case wasm.OpIf:
			cond := pop()
			endPC := meta.EndOf[pc]
			elsePC := meta.ElseOf[pc]
			if cond != 0 {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
			} else if elsePC != endPC {
				ctrl = append(ctrl, ctrlFrame{startPC: pc, endPC: endPC, stackH: len(stack), hasResult: in.A != wasm.BlockTypeEmpty})
				pc = elsePC + 1
				continue
			} else {
				pc = endPC + 1
				continue
			}
		case wasm.OpElse:
			// Reached only by falling through the then-arm: skip to end.
			top := ctrl[len(ctrl)-1]
			pc = top.endPC // the end opcode pops the frame
			continue
		case wasm.OpEnd:
			if len(ctrl) > 0 {
				ctrl = ctrl[:len(ctrl)-1]
			}
		case wasm.OpBr:
			pc = branchTo(int(in.A))
			continue
		case wasm.OpBrIf:
			if pop() != 0 {
				pc = branchTo(int(in.A))
				continue
			}
		case wasm.OpBrTable:
			i := uint32(pop())
			d := in.A
			if int(i) < len(in.Table) {
				d = in.Table[i]
			}
			pc = branchTo(int(d))
			continue
		case wasm.OpReturn:
			return vm.takeResults(f, stack), nil
		case wasm.OpCall:
			callee := &vm.inst.funcs[in.A]
			res, err := vm.callFrom(callee, &stack)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpCallIndirect:
			ti := pop()
			if int(ti) >= len(vm.inst.table) {
				return nil, trap(TrapUndefinedElement, pc)
			}
			fi := vm.inst.table[ti]
			if fi < 0 {
				return nil, trap(TrapUndefinedElement, pc)
			}
			callee := &vm.inst.funcs[fi]
			want := vm.inst.module.Types[in.A]
			if !callee.typ.Equal(want) {
				return nil, trap(TrapIndirectCallTypeMismatch, pc)
			}
			res, err := vm.callFrom(callee, &stack)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case wasm.OpDrop:
			pop()
		case wasm.OpSelect:
			c, b, a := pop(), pop(), pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}
		case wasm.OpLocalGet:
			push(locals[in.A])
		case wasm.OpLocalSet:
			locals[in.A] = pop()
		case wasm.OpLocalTee:
			locals[in.A] = stack[len(stack)-1]
		case wasm.OpGlobalGet:
			push(vm.inst.globals[in.A])
		case wasm.OpGlobalSet:
			vm.inst.globals[in.A] = pop()

		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			if in.Op == wasm.OpI32Const {
				push(uint64(uint32(in.I32())))
			} else {
				push(in.Imm)
			}

		case wasm.OpMemorySize:
			push(uint64(uint32(len(mem()) / PageSize)))
		case wasm.OpMemoryGrow:
			pages := uint32(pop())
			push(uint64(uint32(vm.inst.grow(pages))))

		default:
			if in.Op.IsLoad() {
				addr := uint64(uint32(pop())) + uint64(in.B)
				n := in.Op.MemBytes()
				if addr+uint64(n) > uint64(len(mem())) {
					return nil, trap(TrapMemoryOutOfBounds, pc)
				}
				push(loadVal(in.Op, mem()[addr:addr+uint64(n)]))
			} else if in.Op.IsStore() {
				val := pop()
				addr := uint64(uint32(pop())) + uint64(in.B)
				n := in.Op.MemBytes()
				if addr+uint64(n) > uint64(len(mem())) {
					return nil, trap(TrapMemoryOutOfBounds, pc)
				}
				storeVal(in.Op, mem()[addr:addr+uint64(n)], val)
			} else {
				v, terr := applyNumeric(in.Op, &stack)
				if terr != 0 {
					return nil, trap(terr, pc)
				}
				_ = v
			}
		}
		pc++
	}
	return vm.takeResults(f, stack), nil
}

// callFrom pops the callee's arguments off the caller's stack and invokes it.
func (vm *VM) callFrom(callee *funcDef, stack *[]uint64) ([]uint64, error) {
	n := len(callee.typ.Params)
	s := *stack
	if len(s) < n {
		return nil, &Trap{Kind: TrapHostError, FuncIndex: callee.index, Wrapped: fmt.Errorf("stack underflow calling %s", vm.inst.name(callee.index))}
	}
	args := make([]uint64, n)
	copy(args, s[len(s)-n:])
	*stack = s[:len(s)-n]
	return vm.call(callee, args)
}

func (vm *VM) takeResults(f *funcDef, stack []uint64) []uint64 {
	n := len(f.typ.Results)
	if n == 0 || len(stack) < n {
		return nil
	}
	out := make([]uint64, n)
	copy(out, stack[len(stack)-n:])
	return out
}
