package ir

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestEvalBinaryIntOps(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, w Word
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, -1},
		{Mul, -3, 4, -12},
		{Div, 13, 4, 3},
		{Div, -13, 4, -3}, // Go truncated division
		{Div, 13, 0, 0},   // total machine: /0 = 0
		{Mod, 13, 4, 1},
		{Mod, -13, 4, -1},
		{Mod, 13, 0, 0},
		{BitAnd, 0b1100, 0b1010, 0b1000},
		{BitOr, 0b1100, 0b1010, 0b1110},
		{BitXor, 0b1100, 0b1010, 0b0110},
		{Shl, 1, 4, 16},
		{Shl, 1, 64, 1}, // shift counts masked to 6 bits
		{Shl, 1, 65, 2},
		{Shr, 16, 2, 4},
		{Shr, -1, 63, -1}, // arithmetic shift: sign bit replicates
		{CmpLt, 1, 2, 1},
		{CmpLt, 2, 1, 0},
		{CmpLe, 2, 2, 1},
		{CmpGt, 3, 2, 1},
		{CmpGe, 2, 3, 0},
		{CmpEq, 5, 5, 1},
		{CmpNe, 5, 5, 0},
	}
	for _, c := range cases {
		if got := EvalBinary(c.op, c.a, c.b); got != c.w {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
}

func TestShrIsArithmetic(t *testing.T) {
	// Word is int64, so Shr replicates the sign bit.
	if got := EvalBinary(Shr, -8, 1); got != -4 {
		t.Fatalf("Shr(-8, 1) = %d, want -4 (arithmetic shift)", got)
	}
}

func TestEvalBinaryFloatOps(t *testing.T) {
	f := func(x float64) Word { return FloatWord(x) }
	cases := []struct {
		op   Op
		a, b Word
		want Word
	}{
		{FAdd, f(1.5), f(2.25), f(3.75)},
		{FSub, f(1.5), f(2.25), f(-0.75)},
		{FMul, f(1.5), f(4), f(6)},
		{FDiv, f(3), f(2), f(1.5)},
		{FCmpLt, f(1), f(2), 1},
		{FCmpLe, f(2), f(2), 1},
		{FCmpGt, f(1), f(2), 0},
		{FCmpGe, f(2), f(2), 1},
		{FCmpEq, f(2), f(2), 1},
		{FCmpNe, f(2), f(2), 0},
	}
	for _, c := range cases {
		if got := EvalBinary(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v = %v, want %v", c.op, got, c.want)
		}
	}
	// Float division by zero follows IEEE (inf), not the integer rule.
	if got := EvalBinary(FDiv, f(1), f(0)).Float(); got <= 0 || got == got-1 {
		_ = got // +Inf: got > 0 and got-1 == got
	}
}

func TestEvalUnary(t *testing.T) {
	cases := []struct {
		op      Op
		a, want Word
	}{
		{Neg, 5, -5},
		{BitNot, 0, -1},
		{LNot, 0, 1},
		{LNot, 7, 0},
		{FNeg, FloatWord(2.5), FloatWord(-2.5)},
		{I2F, 3, FloatWord(3)},
		{F2I, FloatWord(3.9), 3},
		{F2I, FloatWord(-3.9), -3},
	}
	for _, c := range cases {
		if got := EvalUnary(c.op, c.a); got != c.want {
			t.Errorf("%v(%d) = %d, want %d", c.op, c.a, got, c.want)
		}
	}
}

func TestEvalPanicsOnWrongArity(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanic("EvalBinary(Neg)", func() { EvalBinary(Neg, 1, 2) })
	assertPanic("EvalUnary(Add)", func() { EvalUnary(Add, 1) })
}

func TestIsBinaryIsUnaryPartition(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		if IsBinary(op) && IsUnary(op) {
			t.Errorf("%v is both binary and unary", op)
		}
	}
	// Every ALU op is classified.
	for _, op := range []Op{Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor,
		Shl, Shr, CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
		FAdd, FSub, FMul, FDiv, FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq, FCmpNe} {
		if !IsBinary(op) {
			t.Errorf("%v not IsBinary", op)
		}
	}
	for _, op := range []Op{Neg, BitNot, LNot, FNeg, I2F, F2I} {
		if !IsUnary(op) {
			t.Errorf("%v not IsUnary", op)
		}
	}
	for _, op := range []Op{PushC, LdLocal, StLocal, Pop, Dup, PushRet, Nop} {
		if IsBinary(op) || IsUnary(op) {
			t.Errorf("%v misclassified as ALU", op)
		}
	}
}

func TestTruth(t *testing.T) {
	if Truth(0) || !Truth(1) || !Truth(-5) {
		t.Fatal("Truth wrong")
	}
}

func TestQuickDivModIdentity(t *testing.T) {
	// For b != 0: a == (a/b)*b + a%b (Go semantics shared by all engines).
	f := func(a, b int64) bool {
		if b == 0 {
			return EvalBinary(Div, Word(a), 0) == 0 && EvalBinary(Mod, Word(a), 0) == 0
		}
		q := EvalBinary(Div, Word(a), Word(b))
		r := EvalBinary(Mod, Word(a), Word(b))
		return int64(q)*b+int64(r) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComparisonTrichotomy(t *testing.T) {
	f := func(a, b int64) bool {
		lt := EvalBinary(CmpLt, Word(a), Word(b))
		eq := EvalBinary(CmpEq, Word(a), Word(b))
		gt := EvalBinary(CmpGt, Word(a), Word(b))
		return lt+eq+gt == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatRoundTripOps(t *testing.T) {
	f := func(a, b float64) bool {
		if a != a || b != b {
			return true // skip NaN inputs
		}
		sum := EvalBinary(FAdd, FloatWord(a), FloatWord(b)).Float()
		return sum == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBinaryRefusals(t *testing.T) {
	const min, max = Word(-1 << 63), Word(1<<63 - 1)
	cases := []struct {
		name string
		op   Op
		a, b Word
		want Word
		ok   bool
	}{
		// Plain folds agree with EvalBinary bit for bit.
		{"add", Add, 3, 4, 7, true},
		{"sub", Sub, 3, 4, -1, true},
		{"mul", Mul, -3, 4, -12, true},
		{"div", Div, 13, 4, 3, true},
		{"mod", Mod, -13, 4, -1, true},
		{"shl", Shl, 1, 4, 16, true},
		{"shl-neg-preserved", Shl, -2, 1, -4, true},
		{"shr", Shr, -8, 1, -4, true},
		{"cmp", CmpLt, 1, 2, 1, true},

		// Division and modulo by constant zero degrade to ⊤: the machine
		// totalizes them to 0 at runtime, but the fold must not bake a
		// silent 0 in.
		{"div-by-zero", Div, 13, 0, 0, false},
		{"mod-by-zero", Mod, 13, 0, 0, false},
		{"div-min-by-minus-one", Div, min, -1, 0, false},
		{"mod-min-by-minus-one", Mod, min, -1, 0, false},

		// Signed overflow degrades to ⊤ instead of folding the wrap.
		{"add-overflow", Add, max, 1, 0, false},
		{"add-underflow", Add, min, -1, 0, false},
		{"add-max-ok", Add, max, 0, max, true},
		{"sub-overflow", Sub, min, 1, 0, false},
		{"sub-underflow", Sub, max, -1, 0, false},
		{"mul-overflow", Mul, max, 2, 0, false},
		{"mul-min-minus-one", Mul, min, -1, 0, false},
		{"mul-minus-one-min", Mul, -1, min, 0, false},
		{"mul-by-zero-ok", Mul, max, 0, 0, true},
		{"shl-lost-bits", Shl, max, 1, 0, false},
		{"shl-sign-lost", Shl, 1, 63, 0, false},
	}
	for _, c := range cases {
		got, ok := FoldBinary(c.op, c.a, c.b)
		if ok != c.ok {
			t.Errorf("%s: FoldBinary(%v, %d, %d) ok=%v, want %v", c.name, c.op, c.a, c.b, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got != c.want {
			t.Errorf("%s: FoldBinary(%v, %d, %d) = %d, want %d", c.name, c.op, c.a, c.b, got, c.want)
		}
		if ev := EvalBinary(c.op, c.a, c.b); got != ev {
			t.Errorf("%s: fold %d disagrees with runtime %d", c.name, got, ev)
		}
	}
}

func TestFoldUnaryRefusals(t *testing.T) {
	const min = Word(-1 << 63)
	if _, ok := FoldUnary(Neg, min); ok {
		t.Error("FoldUnary(Neg, MinInt64) must refuse (wraps to itself at runtime)")
	}
	for _, c := range []struct {
		op      Op
		a, want Word
	}{
		{Neg, 5, -5}, {BitNot, 0, -1}, {LNot, 0, 1}, {F2I, FloatWord(3.9), 3},
	} {
		got, ok := FoldUnary(c.op, c.a)
		if !ok || got != c.want {
			t.Errorf("FoldUnary(%v, %d) = (%d, %v), want (%d, true)", c.op, c.a, got, ok, c.want)
		}
	}
}

func TestQuickFoldMatchesEval(t *testing.T) {
	// Whenever a fold is accepted, it must be bit-identical to the
	// runtime semantics every engine shares.
	f := func(a, b int64, opSel uint8) bool {
		ops := []Op{Add, Sub, Mul, Div, Mod, BitAnd, BitOr, BitXor, Shl, Shr,
			CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe}
		op := ops[int(opSel)%len(ops)]
		v, ok := FoldBinary(op, Word(a), Word(b))
		return !ok || v == EvalBinary(op, Word(a), Word(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsFloatClassifier(t *testing.T) {
	if !FAdd.IsFloat() || !FCmpNe.IsFloat() {
		t.Error("float ops not classified")
	}
	if Add.IsFloat() || CmpEq.IsFloat() || I2F.IsFloat() {
		t.Error("int/conversion ops classified as float")
	}
}

// binaryOps lists every opcode IsBinary accepts.
func binaryOps() []Op {
	var ops []Op
	for op := Nop; op < numOps; op++ {
		if IsBinary(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// rowMatches requires EvalBinaryRow(op, x, y) to leave in x exactly the
// per-lane EvalBinary results, bit for bit, and y unchanged.
func rowMatches(t *testing.T, op Op, x, y []Word) {
	t.Helper()
	want := make([]Word, len(x))
	for i := range x {
		want[i] = EvalBinary(op, x[i], y[i])
	}
	got, yc := slices.Clone(x), slices.Clone(y)
	EvalBinaryRow(op, got, yc)
	if !slices.Equal(yc, y) {
		t.Fatalf("%v: EvalBinaryRow changed its right operand row", op)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v lane %d: EvalBinaryRow(%#x, %#x) = %#x, EvalBinary %#x", op, i, x[i], y[i], got[i], want[i])
		}
	}
}

// TestEvalBinaryRow: for every binary opcode, EvalBinaryRow over 64-lane
// rows equals per-lane EvalBinary on every pair of edge operands and on
// seeded random rows, and a non-binary opcode panics.
func TestEvalBinaryRow(t *testing.T) {
	f := func(x float64) Word { return FloatWord(x) }
	edges := []Word{
		0, 1, -1, 2, -3, 63, 64, math.MinInt64, math.MaxInt64,
		f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)), f(math.Copysign(0, -1)), f(1.5), f(-2.25),
	}
	var xs, ys []Word
	for _, a := range edges {
		for _, b := range edges {
			xs, ys = append(xs, a), append(ys, b)
		}
	}
	for len(xs)%64 != 0 {
		xs, ys = append(xs, 7), append(ys, 0)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 8 {
		for range 64 {
			// Half full-range words, half small ones, so comparisons,
			// shifts and division see equal and tiny operands too.
			a, b := Word(r.Uint64()), Word(r.Uint64())
			if r.IntN(2) == 0 {
				a, b = Word(r.IntN(9)-4), Word(r.IntN(9)-4)
			}
			xs, ys = append(xs, a), append(ys, b)
		}
	}
	for _, op := range binaryOps() {
		for i := 0; i < len(xs); i += 64 {
			rowMatches(t, op, xs[i:i+64], ys[i:i+64])
		}
	}
	for _, c := range []struct {
		name string
		op   Op
		a, b Word
		want Word
	}{
		{"MinInt64 / -1", Div, math.MinInt64, -1, math.MinInt64},
		{"MinInt64 % -1", Mod, math.MinInt64, -1, 0},
		{"div by 0", Div, 5, 0, 0},
		{"mod by 0", Mod, 5, 0, 0},
		{"shl 63", Shl, 1, 63, math.MinInt64},
		{"shl 64", Shl, 1, 64, 1},
		{"shl -1", Shl, 1, -1, math.MinInt64},
		{"shr -1", Shr, math.MinInt64, -1, -1},
	} {
		x := []Word{c.a}
		if EvalBinaryRow(c.op, x, []Word{c.b}); x[0] != c.want {
			t.Errorf("%s: EvalBinaryRow = %d, want %d", c.name, x[0], c.want)
		}
	}
	for op := Nop; op < numOps; op++ {
		if IsBinary(op) {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalBinaryRow(%v) did not panic", op)
				}
			}()
			EvalBinaryRow(op, make([]Word, 64), make([]Word, 64))
		}()
	}
}

// FuzzEvalRows: an opcode drawn from the binary ones and two 64-lane
// rows read from the input, little-endian, zero past its end;
// EvalBinaryRow must equal per-lane EvalBinary.
func FuzzEvalRows(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), bytes.Repeat([]byte{0xff}, 1024))
	f.Add(uint8(8), binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), 64))
	f.Add(uint8(19), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	ops := binaryOps()
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		var rows [128]Word
		for i := range rows {
			var w [8]byte
			copy(w[:], data[min(len(data), 8*i):])
			rows[i] = Word(binary.LittleEndian.Uint64(w[:]))
		}
		rowMatches(t, ops[int(sel)%len(ops)], rows[:64], rows[64:])
	})
}
