// Package static is the pre-execution analysis layer: per-function control
// flow graphs, an inter-procedural call graph (direct calls plus
// call_indirect resolved over the table/elem sections), host-import
// reachability from the exported entry points, and a lightweight
// intra-procedural taint pass from action-data sources to the host-API
// sinks the paper's five oracles reason about.
//
// Its purpose is triage: WASAI (the source paper) pays full concolic-fuzzing
// cost on every contract, even when the interesting behaviour is statically
// obvious or statically impossible. EOSAFE demonstrates that the same
// vulnerability classes can be localized cheaply from Wasm bytecode alone;
// this package computes the sound fraction of that signal (necessary
// conditions for each dynamic oracle) and a heuristic priority score, as a
// standalone report (wasai.AnalyzeStatic); the campaign engine fuzzes every
// contract regardless. Soundness contract: a candidate flag may be a false
// positive (the fuzzer then finds nothing) but never a false negative with
// respect to internal/scanner's trace oracles — a clear flag is a proof the
// oracle cannot fire. internal/bench's triage experiment checks exactly
// this against a dynamic campaign.
package static

import (
	"fmt"

	"repro/internal/wasm"
)

// ExitTarget marks a successor edge that leaves the function (the implicit
// function label, return, or falling off the final end).
const ExitTarget = -1

// Block is one basic block: the instructions in the half-open pc range
// [Start, End) of a function body. Every pc of the body belongs to exactly
// one block (blocks partition the body).
type Block struct {
	Start, End int
	// Succs holds successor block indices in control-transfer order
	// (branch target before fall-through for br_if; then-arm before
	// else-arm for if). ExitTarget marks a function exit edge.
	Succs []int
}

// CFG is the control flow graph of one function body.
type CFG struct {
	Blocks []Block
	// Branches counts the conditional branch sites (if, br_if and each
	// br_table with more than one distinct target) — the unit of the
	// fuzzer's coverage metric and of the triage cost estimate.
	Branches int
}

// Complexity returns the cyclomatic complexity E - N + 2 of the graph,
// counting exit edges toward E.
func (g *CFG) Complexity() int {
	edges := 0
	for _, b := range g.Blocks {
		edges += len(b.Succs)
	}
	return edges - len(g.Blocks) + 2
}

// BlockAt returns the index of the block containing pc, or -1.
func (g *CFG) BlockAt(pc int) int {
	for i, b := range g.Blocks {
		if pc >= b.Start && pc < b.End {
			return i
		}
	}
	return -1
}

// frame is one structured-control frame during the CFG scan.
type frame struct {
	pc     int  // pc of the block/loop/if instruction (-1 for the function frame)
	isLoop bool // br targets re-enter at pc instead of continuing after end
}

// BuildCFG constructs the basic-block graph of one function body. The body
// is the flat instruction stream of wasm.Code (terminated by OpEnd).
// Malformed bodies — unbalanced control structures, else outside if, label
// depths exceeding the nesting, instructions after the function's final
// end — are reported as errors, never panics, which is what FuzzCFG
// exercises.
func BuildCFG(body []wasm.Instr) (*CFG, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("static: empty function body")
	}
	if body[len(body)-1].Op != wasm.OpEnd {
		return nil, fmt.Errorf("static: body does not end with end")
	}
	meta, err := wasm.AnalyzeControl(body)
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}

	// endOfElse maps an else pc to the matching end of its if, so the else
	// marker (reached by falling out of the then arm) can jump over the
	// else arm.
	endOfElse := map[int]int{}
	for ifPC, elsePC := range meta.ElseOf {
		if body[elsePC].Op == wasm.OpElse {
			endOfElse[elsePC] = meta.EndOf[ifPC]
		}
	}

	// succs[pc] lists the control successors of the terminator at pc;
	// terminator[pc] marks pcs that end a basic block. Computed in one
	// linear scan that maintains the frame stack (label depth d resolves to
	// the d'th enclosing frame; the function frame is the outermost).
	succs := map[int][]int{}
	terminator := map[int]bool{}
	stack := []frame{{pc: -1}} // function frame

	target := func(pc int, depth uint32) (int, error) {
		idx := len(stack) - 1 - int(depth)
		if idx < 0 {
			return 0, fmt.Errorf("static: pc %d: label depth %d exceeds nesting %d", pc, depth, len(stack)-1)
		}
		fr := stack[idx]
		if fr.pc < 0 {
			return ExitTarget, nil
		}
		if fr.isLoop {
			return fr.pc, nil
		}
		return meta.EndOf[fr.pc], nil
	}

	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock:
			stack = append(stack, frame{pc: pc})
		case wasm.OpLoop:
			stack = append(stack, frame{pc: pc, isLoop: true})
		case wasm.OpIf:
			// Conditional: then-arm falls through to pc+1; the false edge
			// jumps to the else arm (skipping the marker) or to the end.
			falseTo := meta.EndOf[pc]
			if elsePC := meta.ElseOf[pc]; body[elsePC].Op == wasm.OpElse {
				falseTo = elsePC + 1
			}
			terminator[pc] = true
			succs[pc] = []int{pc + 1, falseTo}
			stack = append(stack, frame{pc: pc})
		case wasm.OpElse:
			// Falling into the else marker means the then arm completed:
			// control transfers to the if's end.
			terminator[pc] = true
			succs[pc] = []int{endOfElse[pc]}
		case wasm.OpEnd:
			if len(stack) == 1 {
				// The function's final end: exit.
				if pc != len(body)-1 {
					return nil, fmt.Errorf("static: pc %d: instructions after function end", pc)
				}
				terminator[pc] = true
				succs[pc] = []int{ExitTarget}
			} else {
				stack = stack[:len(stack)-1]
			}
		case wasm.OpBr:
			t, err := target(pc, in.A)
			if err != nil {
				return nil, err
			}
			terminator[pc] = true
			succs[pc] = []int{t}
		case wasm.OpBrIf:
			t, err := target(pc, in.A)
			if err != nil {
				return nil, err
			}
			terminator[pc] = true
			succs[pc] = []int{t, pc + 1}
		case wasm.OpBrTable:
			var out []int
			seen := map[int]bool{}
			add := func(depth uint32) error {
				t, err := target(pc, depth)
				if err != nil {
					return err
				}
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
				return nil
			}
			for _, d := range in.Table {
				if err := add(d); err != nil {
					return nil, err
				}
			}
			if err := add(in.A); err != nil {
				return nil, err
			}
			terminator[pc] = true
			succs[pc] = out
		case wasm.OpReturn:
			terminator[pc] = true
			succs[pc] = []int{ExitTarget}
		case wasm.OpUnreachable:
			// Traps: no successors.
			terminator[pc] = true
			succs[pc] = nil
		}
	}

	// In a balanced body the final end closes the function frame and was
	// marked a terminator above; if it instead popped a block/loop/if frame
	// the body never terminates the function.
	if !terminator[len(body)-1] {
		return nil, fmt.Errorf("static: final end closes a control frame, not the function")
	}

	// Leaders: pc 0, every branch target, and the instruction after every
	// terminator.
	leader := map[int]bool{0: true}
	for pc := range terminator {
		if pc+1 < len(body) {
			leader[pc+1] = true
		}
		for _, t := range succs[pc] {
			if t != ExitTarget {
				if t < 0 || t >= len(body) {
					return nil, fmt.Errorf("static: pc %d: branch target %d outside body", pc, t)
				}
				leader[t] = true
			}
		}
	}

	// Blocks: contiguous leader-to-leader ranges, in pc order.
	starts := make([]int, 0, len(leader))
	for pc := range leader {
		starts = append(starts, pc)
	}
	sortInts(starts)
	blockOf := map[int]int{} // leader pc -> block index
	for i, s := range starts {
		blockOf[s] = i
	}
	g := &CFG{Blocks: make([]Block, len(starts))}
	for i, s := range starts {
		end := len(body)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := Block{Start: s, End: end}
		last := end - 1
		if terminator[last] {
			for _, t := range succs[last] {
				if t == ExitTarget {
					b.Succs = append(b.Succs, ExitTarget)
				} else {
					b.Succs = append(b.Succs, blockOf[t])
				}
			}
		} else if end < len(body) {
			b.Succs = []int{blockOf[end]} // fall-through into the next leader
		} else {
			b.Succs = []int{ExitTarget}
		}
		g.Blocks[i] = b
	}

	for pc, in := range body {
		switch in.Op {
		case wasm.OpIf, wasm.OpBrIf:
			g.Branches++
		case wasm.OpBrTable:
			if len(succs[pc]) > 1 {
				g.Branches++
			}
		}
	}
	return g, nil
}

// sortInts is a tiny insertion sort: leader sets are small and this avoids
// pulling package sort into the hot per-function path for no reason.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
