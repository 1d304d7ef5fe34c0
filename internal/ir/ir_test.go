package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFloatWordRoundtrip(t *testing.T) {
	f := func(x float64) bool { return FloatWord(x).Float() == x || x != x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBool(t *testing.T) {
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Fatalf("Bool encoding wrong")
	}
}

func TestOpStrings(t *testing.T) {
	for o := Nop; o < numOps; o++ {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", o)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Errorf("unknown op formatting wrong")
	}
}

func TestCostsPositiveAndOrdered(t *testing.T) {
	for o := PushC; o < numOps; o++ {
		if o.Cost() <= 0 {
			t.Errorf("%v cost %d not positive", o, o.Cost())
		}
	}
	if Nop.Cost() != 0 {
		t.Errorf("Nop should be free")
	}
	// The model's load-bearing relative magnitudes.
	if !(LdRemote.Cost() > StMono.Cost() && StMono.Cost() > LdLocal.Cost()) {
		t.Errorf("router > broadcast > local ordering violated")
	}
	if !(Div.Cost() > Mul.Cost() && Mul.Cost() > Add.Cost()) {
		t.Errorf("div > mul > add ordering violated")
	}
	if !(FDiv.Cost() > FMul.Cost() && FMul.Cost() > FAdd.Cost()) {
		t.Errorf("float op ordering violated")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: PushC, Imm: 42, Ty: Int}, "PushC(42)"},
		{Instr{Op: PushC, Imm: int64(FloatWord(1.5)), Ty: Float}, "PushC(1.5)"},
		{Instr{Op: Pop, Imm: 2}, "Pop(2)"},
		{Instr{Op: LdLocal, Imm: 3, Sym: "x"}, "LdLocal(3:x)"},
		{Instr{Op: StMono, Imm: 0}, "StMono(0)"},
		{Instr{Op: PushRet, Imm: 7}, "PushRet(7)"},
		{Instr{Op: Add}, "Add"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestCodeCost(t *testing.T) {
	code := []Instr{{Op: PushC, Imm: 1}, {Op: LdLocal}, {Op: Add}, {Op: StLocal}}
	want := PushC.Cost() + LdLocal.Cost() + Add.Cost() + StLocal.Cost()
	if got := CodeCost(code); got != want {
		t.Fatalf("CodeCost = %d, want %d", got, want)
	}
}

func TestStackBalance(t *testing.T) {
	cases := []struct {
		name    string
		code    []Instr
		net     int
		minNeg  bool
		wantMin int
	}{
		{"assign x=1", []Instr{
			{Op: PushC, Imm: 1}, {Op: StLocal, Imm: 0},
		}, 0, false, 0},
		{"cond load", []Instr{
			{Op: LdLocal, Imm: 0},
		}, 1, false, 0},
		{"binary", []Instr{
			{Op: PushC, Imm: 1}, {Op: PushC, Imm: 2}, {Op: Add}, {Op: Pop, Imm: 1},
		}, 0, false, 0},
		{"underflow", []Instr{
			{Op: Add},
		}, -1, true, -2},
		{"array store", []Instr{
			{Op: PushC, Imm: 3}, {Op: PushC, Imm: 9}, {Op: StIndex, Imm: 4},
		}, 0, false, 0},
		{"remote load", []Instr{
			{Op: IProc}, {Op: LdRemote, Imm: 2}, {Op: Pop, Imm: 1},
		}, 0, false, 0},
		{"dup", []Instr{
			{Op: PushC, Imm: 5}, {Op: Dup}, {Op: Pop, Imm: 2},
		}, 0, false, 0},
		{"unary needs operand", []Instr{
			{Op: LdLocal}, {Op: Neg}, {Op: StLocal},
		}, 0, false, 0},
		// Both SIMD VMs pop nothing for a negative count, so the second
		// store underflows; counting Pop -1 as a push would hide it.
		{"negative pop pops nothing", []Instr{
			{Op: PushC, Imm: 5}, {Op: Pop, Imm: -1}, {Op: StLocal}, {Op: StLocal},
		}, -1, true, -1},
		{"pop beyond int32", []Instr{
			{Op: PushC, Imm: 5}, {Op: Pop, Imm: 1 << 32},
		}, 1 - math.MaxInt32, true, 1 - math.MaxInt32},
	}
	for _, c := range cases {
		net, min := StackBalance(c.code)
		if net != c.net {
			t.Errorf("%s: net = %d, want %d", c.name, net, c.net)
		}
		if c.minNeg && min >= 0 {
			t.Errorf("%s: min = %d, want negative", c.name, min)
		}
		if !c.minNeg && min < 0 {
			t.Errorf("%s: min = %d, want non-negative", c.name, min)
		}
		if c.minNeg && c.wantMin != 0 && min != c.wantMin {
			t.Errorf("%s: min = %d, want %d", c.name, min, c.wantMin)
		}
	}
}

func TestTypeString(t *testing.T) {
	if Void.String() != "void" || Int.String() != "int" || Float.String() != "float" {
		t.Fatalf("type names wrong")
	}
	if Type(9).String() != "type(9)" {
		t.Fatalf("unknown type formatting wrong")
	}
}
