package wasm

import "fmt"

// Validate performs structural validation beyond what Decode enforces:
// all indices in bounds, balanced control structures, and well-formed
// block/else nesting. It does not check operand-stack typing: exec.Compile
// does, at deploy — chain.DeployModule refuses a module with an ill-typed
// or over-bound body, as Nodeos validates contract Wasm at setcode.
func Validate(m *Module) error {
	nf := uint32(m.NumFuncs())
	ng := uint32(len(m.Globals))
	for _, imp := range m.Imports {
		if imp.Kind == ExternalGlobal {
			ng++
		}
	}
	for _, imp := range m.Imports {
		if imp.Kind == ExternalFunc && int(imp.TypeIndex) >= len(m.Types) {
			return fmt.Errorf("wasm: import %s.%s: type index %d out of range", imp.Module, imp.Name, imp.TypeIndex)
		}
	}
	for i, ti := range m.Funcs {
		if int(ti) >= len(m.Types) {
			return fmt.Errorf("wasm: func %d: type index %d out of range", i, ti)
		}
	}
	for _, ex := range m.Exports {
		switch ex.Kind {
		case ExternalFunc:
			if ex.Index >= nf {
				return fmt.Errorf("wasm: export %q: function index %d out of range", ex.Name, ex.Index)
			}
		case ExternalGlobal:
			if ex.Index >= ng {
				return fmt.Errorf("wasm: export %q: global index %d out of range", ex.Name, ex.Index)
			}
		case ExternalMemory, ExternalTable:
			// Single table/memory in MVP; index 0 only.
			if ex.Index != 0 {
				return fmt.Errorf("wasm: export %q: index %d out of range", ex.Name, ex.Index)
			}
		}
	}
	for i, el := range m.Elems {
		for _, fi := range el.Funcs {
			if fi >= nf {
				return fmt.Errorf("wasm: elem segment %d: function index %d out of range", i, fi)
			}
		}
	}
	imported := m.NumImportedFuncs()
	for i := range m.Code {
		fidx := uint32(imported + i)
		ft, err := m.FuncTypeAt(fidx)
		if err != nil {
			return err
		}
		nLocals := uint32(len(ft.Params)) + m.Code[i].NumLocals()
		if err := validateBody(m, &m.Code[i], nLocals, nf, ng); err != nil {
			return fmt.Errorf("wasm: func %d: %w", fidx, err)
		}
	}
	return nil
}

func validateBody(m *Module, c *Code, nLocals, nFuncs, nGlobals uint32) error {
	depth := 1
	var ifStack []bool // tracks whether the innermost frames are if-frames
	ifStack = append(ifStack, false)
	for pc, in := range c.Body {
		switch in.Op {
		case OpBlock, OpLoop:
			depth++
			ifStack = append(ifStack, false)
		case OpIf:
			depth++
			ifStack = append(ifStack, true)
		case OpElse:
			if len(ifStack) == 0 || !ifStack[len(ifStack)-1] {
				return fmt.Errorf("pc %d: else outside if", pc)
			}
			ifStack[len(ifStack)-1] = false // at most one else per if
		case OpEnd:
			depth--
			ifStack = ifStack[:len(ifStack)-1]
			if depth == 0 && pc != len(c.Body)-1 {
				return fmt.Errorf("pc %d: instructions after function end", pc)
			}
		case OpBr, OpBrIf:
			if int(in.A) >= depth {
				return fmt.Errorf("pc %d: branch depth %d exceeds nesting %d", pc, in.A, depth)
			}
		case OpBrTable:
			for _, t := range in.Table {
				if int(t) >= depth {
					return fmt.Errorf("pc %d: br_table target %d exceeds nesting %d", pc, t, depth)
				}
			}
			if int(in.A) >= depth {
				return fmt.Errorf("pc %d: br_table default %d exceeds nesting %d", pc, in.A, depth)
			}
		case OpCall:
			if in.A >= nFuncs {
				return fmt.Errorf("pc %d: call target %d out of range", pc, in.A)
			}
		case OpCallIndirect:
			if int(in.A) >= len(m.Types) {
				return fmt.Errorf("pc %d: call_indirect type %d out of range", pc, in.A)
			}
		case OpLocalGet, OpLocalSet, OpLocalTee:
			if in.A >= nLocals {
				return fmt.Errorf("pc %d: local index %d out of range (%d locals)", pc, in.A, nLocals)
			}
		case OpGlobalGet, OpGlobalSet:
			if in.A >= nGlobals {
				return fmt.Errorf("pc %d: global index %d out of range", pc, in.A)
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("unbalanced control structures (depth %d at end)", depth)
	}
	return nil
}

// ControlMeta precomputes structured-control-flow targets for one function
// body: for each block/loop/if the pc of its matching end, and for each if
// the pc of its else (or its end when there is no else).
type ControlMeta struct {
	// EndOf[pc] is the index of the matching OpEnd for a block/loop/if at pc.
	EndOf map[int]int
	// ElseOf[pc] is the index of the OpElse for an if at pc, or the matching
	// end when the if has no else arm.
	ElseOf map[int]int
}

// AnalyzeControl computes ControlMeta for body. The body must be balanced
// (Validate-checked).
func AnalyzeControl(body []Instr) (ControlMeta, error) {
	meta := ControlMeta{EndOf: map[int]int{}, ElseOf: map[int]int{}}
	type frame struct {
		pc   int
		isIf bool
	}
	var stack []frame
	for pc, in := range body {
		switch in.Op {
		case OpBlock, OpLoop:
			stack = append(stack, frame{pc: pc})
		case OpIf:
			stack = append(stack, frame{pc: pc, isIf: true})
		case OpElse:
			if len(stack) == 0 {
				return ControlMeta{}, fmt.Errorf("wasm: else at pc %d outside if", pc)
			}
			top := stack[len(stack)-1]
			if !top.isIf {
				return ControlMeta{}, fmt.Errorf("wasm: else at pc %d not inside if", pc)
			}
			meta.ElseOf[top.pc] = pc
		case OpEnd:
			if len(stack) == 0 {
				// Function-terminating end.
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			meta.EndOf[top.pc] = pc
			if top.isIf {
				if _, ok := meta.ElseOf[top.pc]; !ok {
					meta.ElseOf[top.pc] = pc
				}
			}
		}
	}
	if len(stack) != 0 {
		return ControlMeta{}, fmt.Errorf("wasm: %d unclosed control frames", len(stack))
	}
	return meta, nil
}
