// Package ir defines the stack-code intermediate representation that MIMD
// basic blocks are lowered into, together with the cycle-cost model used
// for meta-state time splitting (§2.4) and for all SIMD/MIMD simulation.
//
// The IR deliberately mirrors the flavor of the MPL stack macros in the
// paper's Listing 5 (Push, LdL, StL, Pop, JumpF, Ret): each MIMD state is
// a straight-line sequence of stack operations, and all control transfer
// is expressed by the block terminator, never by an in-block instruction.
package ir

import (
	"fmt"
	"math"
)

// Pos is a source position (1-based line and column) threaded from the
// front end through lowering so that diagnostics — in particular the
// vet analyses of internal/analysis — can point at real source lines.
// The zero Pos means "no position known".
type Pos struct {
	Line, Col int
}

// IsValid reports whether the position carries real source coordinates.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Before reports whether p precedes q in source order.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// Type is the value type of an operand or variable.
type Type uint8

const (
	Void  Type = iota
	Int        // 64-bit signed integer
	Float      // 64-bit IEEE float
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case Int:
		return "int"
	case Float:
		return "float"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Word is the universal machine cell. Floats are stored bit-cast.
type Word int64

// FloatWord returns f encoded as a Word.
func FloatWord(f float64) Word { return Word(math.Float64bits(f)) }

// Float returns the float64 encoded in w.
func (w Word) Float() float64 { return math.Float64frombits(uint64(w)) }

// Bool converts a truth value to the canonical Word encoding (1/0).
func Bool(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// Op is a stack-machine opcode.
type Op uint8

const (
	Nop Op = iota

	// Constants and addressing.
	PushC // push Imm (already encoded; Ty says how to print it)
	Dup   // duplicate top of stack
	Pop   // pop Imm values

	// PE-local memory. Imm is the word slot.
	LdLocal // push mem[Imm]
	StLocal // pop v; mem[Imm] = v (value left off the stack)

	// Mono (replicated shared) memory. Loads are local-speed; stores
	// broadcast to every PE's copy (§4.1).
	LdMono
	StMono

	// Arrays: base slot in Imm, index on stack.
	LdIndex // pop i; push mem[Imm+i]
	StIndex // pop v; pop i; mem[Imm+i] = v

	// Parallel subscripting y[[j]] (§4.1): router communication.
	LdRemote // pop pe; push remote mem[Imm] of processor pe
	StRemote // pop v; pop pe; remote mem[Imm] of processor pe = v

	// Built-in SPMD identity.
	IProc // push this PE's index
	NProc // push the machine width

	// Integer arithmetic/logic. Two-operand ops pop rhs then lhs.
	Add
	Sub
	Mul
	Div
	Mod
	Neg
	BitAnd
	BitOr
	BitXor
	BitNot
	Shl
	Shr
	LNot // logical not: push 1 if popped value == 0 else 0

	// Integer comparisons producing 0/1.
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpEq
	CmpNe

	// Float arithmetic and comparisons.
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FCmpLt
	FCmpLe
	FCmpGt
	FCmpGe
	FCmpEq
	FCmpNe

	// Conversions.
	I2F
	F2I

	// PushRet pushes the return-site token Imm onto the PE's return
	// stack; the matching block terminator RetBr pops it and performs
	// the paper's return-as-multiway-branch (§2.2).
	PushRet

	numOps
)

var opNames = [numOps]string{
	Nop: "Nop", PushC: "PushC", Dup: "Dup", Pop: "Pop",
	LdLocal: "LdLocal", StLocal: "StLocal",
	LdMono: "LdMono", StMono: "StMono",
	LdIndex: "LdIndex", StIndex: "StIndex",
	LdRemote: "LdRemote", StRemote: "StRemote",
	IProc: "IProc", NProc: "NProc",
	Add: "Add", Sub: "Sub", Mul: "Mul", Div: "Div", Mod: "Mod", Neg: "Neg",
	BitAnd: "BitAnd", BitOr: "BitOr", BitXor: "BitXor", BitNot: "BitNot",
	Shl: "Shl", Shr: "Shr", LNot: "LNot",
	CmpLt: "CmpLt", CmpLe: "CmpLe", CmpGt: "CmpGt", CmpGe: "CmpGe",
	CmpEq: "CmpEq", CmpNe: "CmpNe",
	FAdd: "FAdd", FSub: "FSub", FMul: "FMul", FDiv: "FDiv", FNeg: "FNeg",
	FCmpLt: "FCmpLt", FCmpLe: "FCmpLe", FCmpGt: "FCmpGt", FCmpGe: "FCmpGe",
	FCmpEq: "FCmpEq", FCmpNe: "FCmpNe",
	I2F: "I2F", F2I: "F2I",
	PushRet: "PushRet",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cost returns the cycle cost of the op under the MasPar MP-1-flavored
// model: 4-bit PE slices make multiplies and divides expensive, the
// router (LdRemote/StRemote) dominates everything, and mono stores pay a
// broadcast. The absolute numbers are a model, not the MP-1 datasheet;
// the paper's arguments depend only on their relative magnitudes.
func (o Op) Cost() int {
	switch o {
	case Nop:
		return 0
	case PushC, Dup, Pop, IProc, NProc, PushRet:
		return 1
	case LdLocal, LdMono:
		return 2
	case StLocal:
		return 2
	case StMono:
		return 10 // broadcast update of every replica
	case LdIndex, StIndex:
		return 3
	case LdRemote, StRemote:
		return 24 // global router transaction
	case Add, Sub, Neg, BitAnd, BitOr, BitXor, BitNot, Shl, Shr, LNot:
		return 1
	case CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe:
		return 1
	case Mul:
		return 6
	case Div, Mod:
		return 14
	case FAdd, FSub, FNeg:
		return 4
	case FMul:
		return 8
	case FDiv:
		return 20
	case FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe:
		return 4
	case I2F, F2I:
		return 3
	}
	return 1
}

// IsFloat reports whether the op consumes/produces float operands.
func (o Op) IsFloat() bool {
	switch o {
	case FAdd, FSub, FMul, FDiv, FNeg, FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe:
		return true
	}
	return false
}

// StackEffect returns how many values the op pops and then pushes,
// exactly as both SIMD VMs apply it: a binary op pops two and pushes
// one, LdIndex pops the index and pushes the value, and Pop k pops k
// values, none for a negative count. Counts past the int32 range are
// clamped there: they underflow any stack a program can build.
func (o Op) StackEffect(imm int64) (pop, push int) {
	switch o {
	case PushC, LdLocal, LdMono, IProc, NProc:
		return 0, 1
	case Dup:
		return 1, 2
	case Pop:
		return int(min(max(imm, 0), math.MaxInt32)), 0
	case StLocal, StMono:
		return 1, 0
	case StIndex, StRemote:
		return 2, 0
	case LdIndex, LdRemote, Neg, BitNot, LNot, FNeg, I2F, F2I:
		return 1, 1
	case Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor, Shl, Shr,
		CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
		FAdd, FSub, FMul, FDiv, FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe:
		return 2, 1
	}
	return 0, 0 // PushRet, Nop, unknown opcodes
}

// StackDelta returns the net change in evaluation-stack depth, so that
// block-level stack balance can be verified.
func (o Op) StackDelta(imm int64) int {
	pop, push := o.StackEffect(imm)
	return push - pop
}

// Instr is one stack instruction. Sym carries the source-level name of
// the variable for LdLocal/StLocal/etc., and Pos the source position of
// the expression that produced the instruction; both exist only for
// diagnostics and the MPL-like emitter and never affect execution.
type Instr struct {
	Op  Op
	Imm int64
	Ty  Type
	Sym string
	Pos Pos
}

// Canon returns the instruction with diagnostic-only position stripped,
// for value-identity comparisons (CSI classes, schedule alignment): two
// instructions from different source lines are still the same broadcast.
func (in Instr) Canon() Instr {
	in.Pos = Pos{}
	return in
}

func (in Instr) String() string {
	switch in.Op {
	case PushC:
		if in.Ty == Float {
			return fmt.Sprintf("PushC(%g)", Word(in.Imm).Float())
		}
		return fmt.Sprintf("PushC(%d)", in.Imm)
	case Pop:
		return fmt.Sprintf("Pop(%d)", in.Imm)
	case LdLocal, StLocal, LdMono, StMono, LdIndex, StIndex, LdRemote, StRemote:
		if in.Sym != "" {
			return fmt.Sprintf("%s(%d:%s)", in.Op, in.Imm, in.Sym)
		}
		return fmt.Sprintf("%s(%d)", in.Op, in.Imm)
	case PushRet:
		return fmt.Sprintf("PushRet(%d)", in.Imm)
	default:
		return in.Op.String()
	}
}

// Cost returns the instruction's cycle cost.
func (in Instr) Cost() int { return in.Op.Cost() }

// CodeCost sums the cycle cost of a code sequence.
func CodeCost(code []Instr) int {
	n := 0
	for _, in := range code {
		n += in.Cost()
	}
	return n
}

// StackBalance returns the net stack delta of a code sequence and the
// minimum depth reached relative to entry, applying each instruction's
// StackEffect pops before its pushes (≤0 means pops below entry depth,
// which is legal only when the block is entered with values on the
// stack — our lowering never does that, so cfg verification rejects
// negative minimums).
func StackBalance(code []Instr) (net, minDepth int) {
	d := 0
	for _, in := range code {
		pop, push := in.Op.StackEffect(in.Imm)
		d -= pop
		minDepth = min(minDepth, d)
		d += push
	}
	return d, minDepth
}
