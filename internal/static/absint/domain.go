// Package absint is the abstract-interpretation verdict engine: a flow- and
// context-sensitive static analysis over the decoded IR (internal/wasm/exec)
// that upgrades the boolean candidate flags of internal/static to
// three-valued per-class verdicts. ProvenNegative means the dynamic oracle
// of internal/scanner cannot fire on any execution the fuzzing harness can
// produce; ProvenPositive means the harness will observe the class within a
// normal fuzzing budget; everything else is Unknown.
//
// The verdicts are a standalone report (wasai.AnalyzeVerdicts, `wasai
// -verdicts`): the campaign engine never consults them, and every job
// fuzzes. internal/bench's verdict experiment checks each proof against a
// dynamic campaign.
package absint

import (
	"fmt"
)

// FieldID names one abstract input of the harness: a field of the transfer
// payload every generated and fuzzed action carries (internal/fuzz encodes
// the same from/to/quantity/memo layout for every payload kind).
type FieldID uint8

const (
	FieldNone FieldID = iota
	FieldCode         // the notifying contract (apply arg 1)
	FieldAction
	FieldFrom
	FieldTo
	FieldAmount
	FieldSymbol
	numFields
)

func (f FieldID) String() string {
	switch f {
	case FieldCode:
		return "code"
	case FieldAction:
		return "action"
	case FieldFrom:
		return "from"
	case FieldTo:
		return "to"
	case FieldAmount:
		return "amount"
	case FieldSymbol:
		return "symbol"
	default:
		return "none"
	}
}

// vKind classifies abstract values.
type vKind uint8

const (
	kUnknown  vKind = iota // anything: host results, unmodeled arithmetic
	kExact                 // a single concrete 64-bit value
	kField                 // (payload field & mask), evaluated under refinement
	kBool                  // 0/1 carrying the predicate that produced it
	kDataSize              // the action_data_size() result (opaque, but tagged
	// so read_action_data can recognize a full-payload copy)
)

// Value is one abstract operand. The zero Value is Unknown.
type Value struct {
	kind  vKind
	c     uint64  // kExact
	field FieldID // kField
	mask  uint64  // kField: value = field & mask (fullMask = plain copy)
	pred  *pred   // kBool: truth of this predicate
	neg   bool    // kBool: value is the negation of pred
}

const fullMask = ^uint64(0)

func unknown() Value       { return Value{} }
func exact(c uint64) Value { return Value{kind: kExact, c: c} }
func boolOf(b bool) Value  { return exact(b2u(b)) }
func fieldVal(f FieldID) Value {
	return Value{kind: kField, field: f, mask: fullMask}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cmpOp enumerates the comparison forms predicates carry.
type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLtS
	cmpLtU
	cmpGtS
	cmpGtU
	cmpLeS
	cmpLeU
	cmpGeS
	cmpGeU
)

func (op cmpOp) negate() cmpOp {
	switch op {
	case cmpEq:
		return cmpNe
	case cmpNe:
		return cmpEq
	case cmpLtS:
		return cmpGeS
	case cmpLtU:
		return cmpGeU
	case cmpGtS:
		return cmpLeS
	case cmpGtU:
		return cmpLeU
	case cmpLeS:
		return cmpGtS
	case cmpLeU:
		return cmpGtU
	case cmpGeS:
		return cmpLtS
	default: // cmpGeU
		return cmpLtU
	}
}

// pred is a comparison between two non-bool values. w32 marks a 32-bit
// compare (operands are already zero-extended uint32 images).
type pred struct {
	op   cmpOp
	a, b Value
	w32  bool
}

// evalCmp applies op to two concrete values.
func evalCmp(op cmpOp, a, b uint64, w32 bool) bool {
	if w32 {
		switch op {
		case cmpEq:
			return uint32(a) == uint32(b)
		case cmpNe:
			return uint32(a) != uint32(b)
		case cmpLtS:
			return int32(uint32(a)) < int32(uint32(b))
		case cmpLtU:
			return uint32(a) < uint32(b)
		case cmpGtS:
			return int32(uint32(a)) > int32(uint32(b))
		case cmpGtU:
			return uint32(a) > uint32(b)
		case cmpLeS:
			return int32(uint32(a)) <= int32(uint32(b))
		case cmpLeU:
			return uint32(a) <= uint32(b)
		case cmpGeS:
			return int32(uint32(a)) >= int32(uint32(b))
		default:
			return uint32(a) >= uint32(b)
		}
	}
	switch op {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLtS:
		return int64(a) < int64(b)
	case cmpLtU:
		return a < b
	case cmpGtS:
		return int64(a) > int64(b)
	case cmpGtU:
		return a > b
	case cmpLeS:
		return int64(a) <= int64(b)
	case cmpLeU:
		return a <= b
	case cmpGeS:
		return int64(a) >= int64(b)
	default:
		return a >= b
	}
}

// fieldDom is the per-path refinement of one free payload field: an
// unsigned interval, known bits, and a small disequality set.
type fieldDom struct {
	lo, hi       uint64
	kmask, kbits uint64 // bits set in kmask are known equal to kbits
	ne           []uint64
}

func topDom() fieldDom { return fieldDom{lo: 0, hi: fullMask} }

func (d fieldDom) empty() bool {
	if d.lo > d.hi {
		return true
	}
	if d.lo == d.hi {
		v := d.lo
		if v&d.kmask != d.kbits&d.kmask {
			return true
		}
		for _, n := range d.ne {
			if n == v {
				return true
			}
		}
	}
	return false
}

// exactVal reports whether the domain pins a single value.
func (d fieldDom) exactVal() (uint64, bool) {
	if d.lo == d.hi && !d.empty() {
		return d.lo, true
	}
	return 0, false
}

// contains reports whether v may be a member (over-approximate: true unless
// provably excluded).
func (d fieldDom) contains(v uint64) bool {
	if v < d.lo || v > d.hi {
		return false
	}
	if v&d.kmask != d.kbits&d.kmask {
		return false
	}
	for _, n := range d.ne {
		if n == v {
			return false
		}
	}
	return true
}

func (d fieldDom) clone() fieldDom {
	d.ne = append([]uint64(nil), d.ne...)
	return d
}

// maskedDom returns the domain of (field & mask) as a coarse interval plus
// known bits restricted to the mask.
func (d fieldDom) maskedDom(mask uint64) fieldDom {
	if mask == fullMask {
		return d
	}
	md := fieldDom{lo: 0, hi: mask, kmask: d.kmask & mask, kbits: d.kbits & mask}
	if v, ok := d.exactVal(); ok {
		md.lo, md.hi = v&mask, v&mask
	}
	return md
}

// refineCmp narrows d so that (field&mask) op K holds (outcome true) and
// reports whether the refined domain is non-empty. Refinement is sound
// (never drops feasible values) and deliberately partial: shapes it cannot
// narrow are left unchanged.
func (d *fieldDom) refineCmp(op cmpOp, k uint64, mask uint64, w32 bool) bool {
	if mask == fullMask && !w32 {
		switch op {
		case cmpEq:
			if !d.contains(k) {
				return false
			}
			d.lo, d.hi = k, k
		case cmpNe:
			if v, ok := d.exactVal(); ok && v == k {
				return false
			}
			if len(d.ne) < 16 {
				d.ne = append(d.ne, k)
			}
			// Tighten interval edges touching k.
			for d.lo <= d.hi && !d.contains(d.lo) && d.lo < fullMask {
				d.lo++
			}
			for d.hi >= d.lo && !d.contains(d.hi) && d.hi > 0 {
				d.hi--
			}
		case cmpLtU:
			if k == 0 {
				return false
			}
			if d.hi > k-1 {
				d.hi = k - 1
			}
		case cmpLeU:
			if d.hi > k {
				d.hi = k
			}
		case cmpGtU:
			if k == fullMask {
				return false
			}
			if d.lo < k+1 {
				d.lo = k + 1
			}
		case cmpGeU:
			if d.lo < k {
				d.lo = k
			}
		case cmpLtS, cmpLeS, cmpGtS, cmpGeS:
			// Signed compare: only refine when the domain and the constant
			// sit in the non-negative half, where signed and unsigned agree.
			if int64(k) >= 0 && d.hi <= uint64(1)<<63-1 {
				var uop cmpOp
				switch op {
				case cmpLtS:
					uop = cmpLtU
				case cmpLeS:
					uop = cmpLeU
				case cmpGtS:
					uop = cmpGtU
				default:
					uop = cmpGeU
				}
				return d.refineCmp(uop, k, mask, false)
			}
		}
		return !d.empty()
	}
	// Masked or 32-bit view: refine known bits for single-bit masks under
	// eq/ne; everything else stays unrefined (sound).
	if popcount(mask) == 1 && !w32 {
		bit := mask
		switch op {
		case cmpEq:
			if k != 0 && k != bit {
				return false
			}
			d.kmask |= bit
			if k == bit {
				d.kbits |= bit
			} else {
				d.kbits &^= bit
			}
		case cmpNe:
			if k == 0 || k == bit {
				d.kmask |= bit
				if k == 0 {
					d.kbits |= bit
				} else {
					d.kbits &^= bit
				}
			}
		}
	}
	return !d.empty()
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// decideCmp attempts to decide (field&mask with domain d) op K. ok=false
// means undecided.
func decideCmp(d fieldDom, mask uint64, op cmpOp, k uint64, w32 bool) (res, ok bool) {
	md := d.maskedDom(mask)
	if v, got := md.exactVal(); got {
		return evalCmp(op, v, k, w32), true
	}
	if w32 {
		// Decide 32-bit compares only when the domain fits in uint32.
		if md.hi > uint64(^uint32(0)) {
			return false, false
		}
	}
	switch op {
	case cmpEq:
		if !md.contains(k) {
			return false, true
		}
	case cmpNe:
		if !md.contains(k) {
			return true, true
		}
	case cmpLtU:
		if md.hi < k {
			return true, true
		}
		if md.lo >= k {
			return false, true
		}
	case cmpLeU:
		if md.hi <= k {
			return true, true
		}
		if md.lo > k {
			return false, true
		}
	case cmpGtU:
		if md.lo > k {
			return true, true
		}
		if md.hi <= k {
			return false, true
		}
	case cmpGeU:
		if md.lo >= k {
			return true, true
		}
		if md.hi < k {
			return false, true
		}
	case cmpLtS, cmpLeS, cmpGtS, cmpGeS:
		// Signed: decide only in the shared non-negative half.
		if int64(k) >= 0 && md.hi <= uint64(1)<<63-1 {
			var uop cmpOp
			switch op {
			case cmpLtS:
				uop = cmpLtU
			case cmpLeS:
				uop = cmpLeU
			case cmpGtS:
				uop = cmpGtU
			default:
				uop = cmpGeU
			}
			return decideCmp(d, mask, uop, k, false)
		}
	}
	return false, false
}

// drawSpace describes the value distribution the fuzzing harness draws a
// free field from, used to bound what a witness path may assume: an
// assumption is admissible only while it keeps a sizable fraction of the
// draw space, so the dynamic fuzzer is guaranteed to produce a satisfying
// input within the first few iterations.
type drawSpace struct {
	lo, hi uint64
	// extraZero marks spaces that additionally contain 0 (empty memo).
	extraZero bool
}

func (s drawSpace) size() float64 {
	n := float64(s.hi-s.lo) + 1
	if s.extraZero {
		n++
	}
	return n
}

// fracAfter estimates |dom ∩ space| / |space| for the refined domain.
func (s drawSpace) fracAfter(d fieldDom) float64 {
	lo, hi := d.lo, d.hi
	if lo < s.lo {
		lo = s.lo
	}
	if hi > s.hi {
		hi = s.hi
	}
	var n float64
	if lo <= hi {
		n = float64(hi-lo) + 1
		n -= float64(len(d.ne)) // coarse; ne entries may be outside, still sound
		if n < 0 {
			n = 0
		}
	}
	if s.extraZero && d.contains(0) {
		n++
	}
	// Each known bit halves the admissible mass.
	for i := 0; i < 64; i++ {
		if d.kmask&(1<<uint(i)) != 0 {
			n /= 2
		}
	}
	return n / s.size()
}

// minAssumeFrac is the admissibility floor for witness assumptions: the
// assumed constraint set must retain at least 1/16 of the field's draw
// space, so a handful of random iterations satisfies it with near
// certainty (and the fixed-seed verdict gate verifies it concretely).
const minAssumeFrac = 1.0 / 16

// assumption is one recorded witness constraint, for reporting.
type assumption struct {
	field FieldID
	desc  string
}

func (a assumption) String() string { return fmt.Sprintf("%s %s", a.field, a.desc) }
