package ir

import (
	"fmt"
	"math"
)

// The ALU helpers give every execution engine (the MIMD reference
// simulator, the MIMD-on-SIMD interpreter, and the SIMD VM) identical
// arithmetic semantics, so cross-engine equivalence is exact:
//
//   - integer division/modulo by zero yields 0 (the machine is total;
//     SIMD lockstep cannot trap a single PE);
//   - shift counts are masked to 6 bits;
//   - float comparisons produce int 0/1.

// EvalBinary applies a two-operand opcode to (a, b) = (lhs, rhs).
func EvalBinary(op Op, a, b Word) Word {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case BitAnd:
		return a & b
	case BitOr:
		return a | b
	case BitXor:
		return a ^ b
	case Shl:
		return a << (uint64(b) & 63)
	case Shr:
		return a >> (uint64(b) & 63)
	case CmpLt:
		return Bool(a < b)
	case CmpLe:
		return Bool(a <= b)
	case CmpGt:
		return Bool(a > b)
	case CmpGe:
		return Bool(a >= b)
	case CmpEq:
		return Bool(a == b)
	case CmpNe:
		return Bool(a != b)
	case FAdd:
		return FloatWord(a.Float() + b.Float())
	case FSub:
		return FloatWord(a.Float() - b.Float())
	case FMul:
		return FloatWord(a.Float() * b.Float())
	case FDiv:
		return FloatWord(a.Float() / b.Float())
	case FCmpLt:
		return Bool(a.Float() < b.Float())
	case FCmpLe:
		return Bool(a.Float() <= b.Float())
	case FCmpGt:
		return Bool(a.Float() > b.Float())
	case FCmpGe:
		return Bool(a.Float() >= b.Float())
	case FCmpEq:
		return Bool(a.Float() == b.Float())
	case FCmpNe:
		return Bool(a.Float() != b.Float())
	}
	panic(fmt.Sprintf("ir: EvalBinary of non-binary op %v", op))
}

// EvalBinaryRow sets x[i] = EvalBinary(op, x[i], y[i]) for every lane
// of x, with one opcode switch for the whole row instead of one per
// lane; y must be at least as long as x. The results are bit-identical
// to EvalBinary's, and a non-binary op panics as it does.
func EvalBinaryRow(op Op, x, y []Word) {
	y = y[:len(x)]
	switch op {
	case Add:
		for i := range x {
			x[i] += y[i]
		}
	case Sub:
		for i := range x {
			x[i] -= y[i]
		}
	case Mul:
		for i := range x {
			x[i] *= y[i]
		}
	case Div:
		for i, b := range y {
			if b == 0 {
				x[i] = 0
			} else {
				x[i] /= b
			}
		}
	case Mod:
		for i, b := range y {
			if b == 0 {
				x[i] = 0
			} else {
				x[i] %= b
			}
		}
	case BitAnd:
		for i := range x {
			x[i] &= y[i]
		}
	case BitOr:
		for i := range x {
			x[i] |= y[i]
		}
	case BitXor:
		for i := range x {
			x[i] ^= y[i]
		}
	case Shl:
		for i := range x {
			x[i] <<= uint64(y[i]) & 63
		}
	case Shr:
		for i := range x {
			x[i] >>= uint64(y[i]) & 63
		}
	case CmpLt:
		for i := range x {
			x[i] = Bool(x[i] < y[i])
		}
	case CmpLe:
		for i := range x {
			x[i] = Bool(x[i] <= y[i])
		}
	case CmpGt:
		for i := range x {
			x[i] = Bool(x[i] > y[i])
		}
	case CmpGe:
		for i := range x {
			x[i] = Bool(x[i] >= y[i])
		}
	case CmpEq:
		for i := range x {
			x[i] = Bool(x[i] == y[i])
		}
	case CmpNe:
		for i := range x {
			x[i] = Bool(x[i] != y[i])
		}
	case FAdd:
		for i := range x {
			x[i] = FloatWord(x[i].Float() + y[i].Float())
		}
	case FSub:
		for i := range x {
			x[i] = FloatWord(x[i].Float() - y[i].Float())
		}
	case FMul:
		for i := range x {
			x[i] = FloatWord(x[i].Float() * y[i].Float())
		}
	case FDiv:
		for i := range x {
			x[i] = FloatWord(x[i].Float() / y[i].Float())
		}
	case FCmpLt:
		for i := range x {
			x[i] = Bool(x[i].Float() < y[i].Float())
		}
	case FCmpLe:
		for i := range x {
			x[i] = Bool(x[i].Float() <= y[i].Float())
		}
	case FCmpGt:
		for i := range x {
			x[i] = Bool(x[i].Float() > y[i].Float())
		}
	case FCmpGe:
		for i := range x {
			x[i] = Bool(x[i].Float() >= y[i].Float())
		}
	case FCmpEq:
		for i := range x {
			x[i] = Bool(x[i].Float() == y[i].Float())
		}
	case FCmpNe:
		for i := range x {
			x[i] = Bool(x[i].Float() != y[i].Float())
		}
	default:
		panic(fmt.Sprintf("ir: EvalBinaryRow of non-binary op %v", op))
	}
}

// IsBinary reports whether op is a two-operand ALU opcode.
func IsBinary(op Op) bool {
	switch op {
	case Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor, Shl, Shr,
		CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
		FAdd, FSub, FMul, FDiv,
		FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe:
		return true
	}
	return false
}

// EvalUnary applies a one-operand opcode.
func EvalUnary(op Op, a Word) Word {
	switch op {
	case Neg:
		return -a
	case BitNot:
		return ^a
	case LNot:
		return Bool(a == 0)
	case FNeg:
		return FloatWord(-a.Float())
	case I2F:
		return FloatWord(float64(a))
	case F2I:
		return Word(int64(a.Float()))
	}
	panic(fmt.Sprintf("ir: EvalUnary of non-unary op %v", op))
}

// IsUnary reports whether op is a one-operand ALU opcode.
func IsUnary(op Op) bool {
	switch op {
	case Neg, BitNot, LNot, FNeg, I2F, F2I:
		return true
	}
	return false
}

// FoldBinary is the compile-time counterpart of EvalBinary: it refuses
// (ok=false) any fold whose runtime result is suspicious enough that
// constant propagation should degrade to not-a-constant instead of
// baking the value in — integer division or modulo by constant zero
// (the machine totalizes these to 0, but a constant zero divisor is
// almost certainly a source bug worth a vet diagnostic, not a silent
// fold) and any signed-integer overflow (Add/Sub/Mul wrap at runtime;
// a fold that wraps hides the wrap from the programmer). Float ops and
// comparisons fold freely: their runtime semantics are exact IEEE and
// total. When ok is true the result is bit-identical to EvalBinary.
func FoldBinary(op Op, a, b Word) (Word, bool) {
	switch op {
	case Div, Mod:
		if b == 0 {
			return 0, false
		}
		// MinInt64 / -1 overflows (and panics in Go); the engines never
		// execute it through EvalBinary without the b==0 guard, but the
		// quotient -MinInt64 is unrepresentable, so refuse the fold.
		if a == math.MinInt64 && b == -1 {
			return 0, false
		}
	case Add:
		s := a + b
		if (s > a) != (b > 0) {
			return 0, false
		}
	case Sub:
		d := a - b
		if (d < a) != (b > 0) {
			return 0, false
		}
	case Mul:
		if a != 0 && b != 0 {
			p := a * b
			if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
				return 0, false
			}
		}
	case Shl:
		// Refuse shifts that lose significant bits (the runtime wraps).
		sh := uint64(b) & 63
		v := a << sh
		if v>>sh != a {
			return 0, false
		}
	}
	return EvalBinary(op, a, b), true
}

// FoldUnary is the compile-time counterpart of EvalUnary; it refuses
// the single overflowing case, Neg of MinInt64 (which wraps to itself
// at runtime).
func FoldUnary(op Op, a Word) (Word, bool) {
	if op == Neg && a == math.MinInt64 {
		return 0, false
	}
	return EvalUnary(op, a), true
}

// Truth reports the branch interpretation of a condition word.
func Truth(w Word) bool { return w != 0 }
