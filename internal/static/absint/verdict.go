package absint

import (
	"sort"

	"repro/internal/chain"
	"repro/internal/contractgen"
	"repro/internal/eos"
	"repro/internal/wasm"
	"repro/internal/wasm/exec"
)

// VerdictKind is the three-valued outcome of a per-class static proof.
type VerdictKind uint8

// Verdict kinds.
const (
	// Unknown means neither proof succeeded: dynamic analysis proceeds
	// exactly as without the engine.
	Unknown VerdictKind = iota
	// ProvenNegative: the class's dynamic oracle cannot fire on any
	// execution the fuzzing harness can produce against this module.
	ProvenNegative
	// ProvenPositive: a replayable witness path makes the oracle fire, with
	// assumptions broad enough that random drawing satisfies them quickly.
	ProvenPositive
)

func (k VerdictKind) String() string {
	switch k {
	case ProvenNegative:
		return "proven-negative"
	case ProvenPositive:
		return "proven-positive"
	default:
		return "unknown"
	}
}

// Witness is the replayable evidence behind a ProvenPositive verdict: the
// harness scenario to run, the input constraints the path assumed (each
// retaining ≥ 1/16 of its field's draw space), and the branch trail.
type Witness struct {
	Scenario    string   `json:"scenario"`
	Action      string   `json:"action,omitempty"`
	Assumptions []string `json:"assumptions,omitempty"`
	Trail       []Step   `json:"trail,omitempty"`
}

// Verdict is one class's outcome.
type Verdict struct {
	Kind    VerdictKind `json:"kind"`
	Reason  string      `json:"reason"`
	Witness *Witness    `json:"witness,omitempty"`
}

// DeadEdge is one proven-impossible conditional outcome: at the original
// (func, pc) br_if/if site, the condition never evaluates to CondTrue in
// any harness execution.
type DeadEdge struct {
	Func     uint32 `json:"func"`
	PC       uint32 `json:"pc"`
	CondTrue bool   `json:"condTrue"`
}

// Report is the full static result for one module.
type Report struct {
	Verdicts map[contractgen.Class]Verdict `json:"verdicts"`
	// DeadEdges lists conditional outcomes proven unreachable under the
	// universal cover; empty unless Complete.
	DeadEdges []DeadEdge `json:"deadEdges,omitempty"`
	// Complete reports that the universal cover enumerated every abstract
	// path (the precondition for dead-edge claims).
	Complete bool `json:"complete"`
	// Paths is the total number of abstract paths explored across covers.
	Paths int `json:"paths"`
}

// AllNegative reports whether every class is proven negative.
func (rp *Report) AllNegative() bool {
	for _, c := range contractgen.Classes {
		if rp.Verdicts[c].Kind != ProvenNegative {
			return false
		}
	}
	return true
}

// AnyPositive reports whether any class is proven positive.
func (rp *Report) AnyPositive() bool {
	for _, c := range contractgen.Classes {
		if rp.Verdicts[c].Kind == ProvenPositive {
			return true
		}
	}
	return false
}

// Positives returns the proven-positive classes in table order.
func (rp *Report) Positives() []contractgen.Class {
	var out []contractgen.Class
	for _, c := range contractgen.Classes {
		if rp.Verdicts[c].Kind == ProvenPositive {
			out = append(out, c)
		}
	}
	return out
}

func unknownReport(reason string) *Report {
	rp := &Report{Verdicts: map[contractgen.Class]Verdict{}}
	for _, c := range contractgen.Classes {
		rp.Verdicts[c] = Verdict{Kind: Unknown, Reason: reason}
	}
	return rp
}

// moduleCalledImports returns the host-import names the module can invoke
// at all: every OpCall immediate naming an import, plus any dispatch-table
// (elem segment) entry that installs an import directly — the only ways a
// wasm function space reaches a host function.
func moduleCalledImports(m *wasm.Module) map[string]bool {
	importName := map[uint32]string{}
	idx := uint32(0)
	for _, imp := range m.Imports {
		if imp.Kind == wasm.ExternalFunc {
			importName[idx] = imp.Name
			idx++
		}
	}
	called := map[string]bool{}
	for i := range m.Code {
		for _, in := range m.Code[i].Body {
			if in.Op == wasm.OpCall {
				if name, ok := importName[in.A]; ok {
					called[name] = true
				}
			}
		}
	}
	for _, el := range m.Elems {
		for _, fi := range el.Funcs {
			if name, ok := importName[fi]; ok {
				called[name] = true
			}
		}
	}
	return called
}

// applyScenarioSyntactic decides the on-chain-data scenario classes
// (StateTamper, OrderDep, CrossContract) by syntactic intrinsic absence.
// These families are judged by the multi-transaction scenario driver in
// internal/fuzz, which the single-invocation abstract domain cannot
// replay — and crucially, scenario replays enter through dispatcher arms
// the pinned covers never take (e.g. a relay arm gated on code !=
// receiver), so any reachability- or cover-based negative here would be
// unsound. A module-wide scan is not: with no db-write intrinsic anywhere,
// no replay can overwrite a row (StateTamper); with no persistent-state
// access and no sends, every transaction outcome is a pure function of its
// own inputs — each apply runs on a fresh instance — so permutation cannot
// diverge (OrderDep); with no inline send, the notification-context oracle
// has nothing to observe (CrossContract). Positive proofs stay Unknown and
// fall through to the scenario driver.
func applyScenarioSyntactic(m *wasm.Module, rp *Report) {
	called := moduleCalledImports(m)
	anyOf := func(names ...string) bool {
		for _, n := range names {
			if called[n] {
				return true
			}
		}
		return false
	}
	dbWrite := anyOf(chain.APIDBStore, chain.APIDBUpdate, chain.APIDBRemove)
	dbRead := anyOf(chain.APIDBFind, chain.APIDBGet, chain.APIDBLowerbound,
		chain.APIDBEnd, chain.APIDBNext, chain.APIDBPrevious)
	send := anyOf(chain.APISendInline, chain.APISendDeferred)
	if !dbWrite {
		rp.Verdicts[contractgen.ClassStateTamper] = Verdict{Kind: ProvenNegative,
			Reason: "no db-write intrinsic anywhere in the module"}
	}
	if !dbWrite && !dbRead && !send {
		rp.Verdicts[contractgen.ClassOrderDep] = Verdict{Kind: ProvenNegative,
			Reason: "no persistent-state or send intrinsic anywhere in the module"}
	}
	if !called[chain.APISendInline] {
		rp.Verdicts[contractgen.ClassCrossContract] = Verdict{Kind: ProvenNegative,
			Reason: "no inline-send intrinsic anywhere in the module"}
	}
}

// applyArgs are the abstract apply(receiver, code, action) arguments: the
// receiver is always the victim account; code and action are scenario
// fields.
func applyArgs() []Value {
	return []Value{exact(victimC), fieldVal(FieldCode), fieldVal(FieldAction)}
}

func goalEntered(f int64) func(*state) bool {
	return func(st *state) bool { return f >= 0 && int(f) < len(st.entered) && st.entered[f] }
}

// onlyNoIndirect reports whether no path performed a call_indirect.
func onlyNoIndirect(r *run) bool {
	for f := range r.agg.firstInds {
		if f != -1 {
			return false
		}
	}
	return true
}

// Analyze statically analyzes one original (un-instrumented) module against
// the harness model. actions lists the module's ABI action names; the
// transfer action is handled by the dedicated scenarios and skipped here.
// The function never panics on malformed-but-decodable modules: anything
// unsupported degrades to Unknown verdicts.
func Analyze(mod *wasm.Module, actions []eos.Name) *Report {
	rp := analyzeSingleInvocation(mod, actions)
	applyScenarioSyntactic(mod, rp)
	return rp
}

// analyzeSingleInvocation runs the abstract engine over the per-invocation
// scenario covers and decides the five trace-oracle classes.
func analyzeSingleInvocation(mod *wasm.Module, actions []eos.Name) *Report {
	e, err := newEngine(mod)
	if err != nil {
		return unknownReport("module shape unsupported: " + err.Error())
	}
	if e.apply < 0 {
		return unknownReport("no analyzable apply export")
	}
	rp := unknownReport("no proof found")

	cover := func(sc scenario, fStar int64) *run {
		r := e.newRun(sc, false, fStar, nil)
		if sc.universal && e.start >= 0 {
			r.execute(e.start, nil)
		}
		r.execute(e.apply, applyArgs())
		r.agg.complete = !r.incomplete
		rp.Paths += r.paths
		return r
	}
	witness := func(sc scenario, fStar int64, goal func(*state) bool) *state {
		r := e.newRun(sc, true, fStar, goal)
		r.execute(e.apply, applyArgs())
		rp.Paths += r.paths
		return r.found
	}
	witnessOf := func(sc scenario, action string, st *state) *Witness {
		w := &Witness{Scenario: sc.name, Action: action, Trail: st.trail}
		for _, a := range st.assum {
			w.Assumptions = append(w.Assumptions, a.String())
		}
		return w
	}

	// Deduplicated non-transfer ABI actions, in declaration order.
	var acts []eos.Name
	seen := map[eos.Name]bool{}
	for _, a := range actions {
		if uint64(a) == transferC || seen[a] {
			continue
		}
		seen[a] = true
		acts = append(acts, a)
	}

	covValid := cover(scenarioValid(), -1)
	covDF := cover(scenarioDirectFake(), -1)
	covFT := cover(scenarioFakeToken(), -1)

	// fStar is the dispatcher's responder: the unique first call_indirect
	// callee of every valid-transfer path. The dynamic oracle latches it
	// from iteration 0 (the schedule always leads with a valid transfer).
	fStar, fStarClean := int64(-1), false
	if covValid.agg.complete && len(covValid.agg.firstInds) == 1 {
		for f := range covValid.agg.firstInds {
			if f >= 0 {
				fStar, fStarClean = f, true
			}
		}
	}
	// noLatchEver: none of the latch-feeding scenarios ever performs a
	// call_indirect (or spawns nested traces that could), so the responder
	// is never identified and neither notification oracle can fire.
	noLatchEver := covValid.agg.complete && covDF.agg.complete && covFT.agg.complete &&
		onlyNoIndirect(covValid) && onlyNoIndirect(covDF) && onlyNoIndirect(covFT) &&
		!covValid.agg.anySend && !covDF.agg.anySend && !covFT.agg.anySend &&
		!covValid.agg.anyReqRecip && !covDF.agg.anyReqRecip && !covFT.agg.anyReqRecip

	covNotif := cover(scenarioNotif(), fStar)
	covUni := cover(scenarioUniversal(), -1)

	// --- Fake EOS ---
	if fStarClean {
		fakesClean := covDF.agg.complete && covFT.agg.complete &&
			!covDF.agg.anySend && !covFT.agg.anySend &&
			!covDF.agg.anyReqRecip && !covFT.agg.anyReqRecip &&
			!covDF.agg.entered[fStar] && !covFT.agg.entered[fStar]
		if fakesClean {
			rp.Verdicts[contractgen.ClassFakeEOS] = Verdict{Kind: ProvenNegative,
				Reason: "responder unreachable from direct-fake and fake-token notifications"}
		} else {
			for _, sc := range []scenario{scenarioDirectFake(), scenarioFakeToken()} {
				if st := witness(sc, fStar, goalEntered(fStar)); st != nil {
					rp.Verdicts[contractgen.ClassFakeEOS] = Verdict{Kind: ProvenPositive,
						Reason:  "responder reachable from a counterfeit notification",
						Witness: witnessOf(sc, "", st)}
					break
				}
			}
		}
	} else if noLatchEver {
		rp.Verdicts[contractgen.ClassFakeEOS] = Verdict{Kind: ProvenNegative,
			Reason: "no dispatcher latch: responder never identified"}
	}

	// --- Fake Notif ---
	if noLatchEver {
		rp.Verdicts[contractgen.ClassFakeNotif] = Verdict{Kind: ProvenNegative,
			Reason: "no dispatcher latch: responder never identified"}
	} else if fStarClean && covNotif.agg.complete && !covNotif.agg.anyReqRecip {
		if covNotif.agg.guardAllOK {
			rp.Verdicts[contractgen.ClassFakeNotif] = Verdict{Kind: ProvenNegative,
				Reason: "to-field guard comparison dominates every responder entry"}
		} else if !covNotif.agg.guardPossible && !covNotif.agg.anySend {
			if st := witness(scenarioNotif(), fStar, goalEntered(fStar)); st != nil {
				rp.Verdicts[contractgen.ClassFakeNotif] = Verdict{Kind: ProvenPositive,
					Reason:  "responder entered on a forwarded notification with no guard comparison",
					Witness: witnessOf(scenarioNotif(), "", st)}
			}
		}
	}

	// --- MissAuth ---
	covActs := make([]*run, len(acts))
	for i, a := range acts {
		covActs[i] = cover(scenarioDirectAction(uint64(a)), -1)
	}
	missNeg := true
	for _, r := range covActs {
		if !r.agg.complete || r.agg.anyEffectNoAuth || r.agg.anyReqRecip {
			missNeg = false
			break
		}
	}
	if missNeg {
		rp.Verdicts[contractgen.ClassMissAuth] = Verdict{Kind: ProvenNegative,
			Reason: "every state-changing intrinsic is dominated by a permission check"}
	} else {
		for i, a := range acts {
			if !covActs[i].agg.anyEffectNoAuth {
				continue
			}
			sc := scenarioDirectAction(uint64(a))
			if st := witness(sc, -1, func(st *state) bool { return st.hitEffectNoAuth }); st != nil {
				rp.Verdicts[contractgen.ClassMissAuth] = Verdict{Kind: ProvenPositive,
					Reason:  "state-changing intrinsic reachable with no prior permission check",
					Witness: witnessOf(sc, a.String(), st)}
				break
			}
		}
	}

	// --- BlockinfoDep / Rollback --- universal cover subsumes every victim
	// invocation (nested inline actions and forwarded notifications
	// included), so its event union is authoritative.
	concrete := func() []scenario {
		scs := []scenario{scenarioValid(), scenarioDirectFake(), scenarioFakeToken(), scenarioNotif()}
		for _, a := range acts {
			scs = append(scs, scenarioDirectAction(uint64(a)))
		}
		return scs
	}
	if covUni.agg.complete && !covUni.agg.anyTapos {
		rp.Verdicts[contractgen.ClassBlockinfoDep] = Verdict{Kind: ProvenNegative,
			Reason: "no tapos intrinsic reachable in any invocation"}
	} else {
		for _, sc := range concrete() {
			if st := witness(sc, -1, func(st *state) bool { return st.hitTapos }); st != nil {
				rp.Verdicts[contractgen.ClassBlockinfoDep] = Verdict{Kind: ProvenPositive,
					Reason:  "tapos intrinsic reachable",
					Witness: witnessOf(sc, "", st)}
				break
			}
		}
	}
	if covUni.agg.complete && !covUni.agg.anySendInline {
		rp.Verdicts[contractgen.ClassRollback] = Verdict{Kind: ProvenNegative,
			Reason: "no inline action send reachable in any invocation"}
	} else {
		for _, sc := range concrete() {
			if st := witness(sc, -1, func(st *state) bool { return st.hitSendInline }); st != nil {
				rp.Verdicts[contractgen.ClassRollback] = Verdict{Kind: ProvenPositive,
					Reason:  "inline action send reachable",
					Witness: witnessOf(sc, "", st)}
				break
			}
		}
	}

	// --- Dead edges --- only under a complete universal cover: an outcome
	// is dead iff no explored path (from apply or start) observed it.
	if covUni.agg.complete {
		rp.Complete = true
		for fi := e.nImp; fi < e.nFunc; fi++ {
			fv := e.ir.Func(uint32(fi))
			for pc := 0; pc < fv.Len(); pc++ {
				in := fv.Instr(pc)
				if in.Op != exec.IRBrIf && in.Op != exec.IRBrIfZ {
					continue
				}
				bits := covUni.agg.condSeen[uint64(fi)<<32|uint64(in.Src)]
				if bits&1 == 0 {
					rp.DeadEdges = append(rp.DeadEdges, DeadEdge{Func: uint32(fi), PC: in.Src, CondTrue: true})
				}
				if bits&2 == 0 {
					rp.DeadEdges = append(rp.DeadEdges, DeadEdge{Func: uint32(fi), PC: in.Src, CondTrue: false})
				}
			}
		}
		sort.Slice(rp.DeadEdges, func(i, j int) bool {
			a, b := rp.DeadEdges[i], rp.DeadEdges[j]
			if a.Func != b.Func {
				return a.Func < b.Func
			}
			if a.PC != b.PC {
				return a.PC < b.PC
			}
			return !a.CondTrue && b.CondTrue
		})
	}
	return rp
}
