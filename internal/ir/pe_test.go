package ir

import (
	"slices"
	"testing"
)

// peMem is a 3-PE machine of 4 words per PE; word a of PE r holds
// 10·(r+1)+a, so every row and word reads differently.
func peMem() [][]Word {
	mem := make([][]Word, 3)
	for r := range mem {
		mem[r] = make([]Word, 4)
		for a := range mem[r] {
			mem[r][a] = Word(10*(r+1) + a)
		}
	}
	return mem
}

func TestPEExec(t *testing.T) {
	type write struct{ row, word int } // each gets the stored value 99
	type peCase struct {
		in     Instr
		i      int // executing PE
		stack  []Word
		ret    []int
		want   []Word
		wantR  []int
		writes []write
	}
	cases := []peCase{
		{in: Instr{Op: Nop}, stack: []Word{7}, want: []Word{7}},
		{in: Instr{Op: PushC, Imm: -5}, stack: []Word{7}, want: []Word{7, -5}},
		{in: Instr{Op: Dup}, stack: []Word{7}, want: []Word{7, 7}},
		{in: Instr{Op: Pop, Imm: 2}, stack: []Word{1, 2, 3}, want: []Word{1}},
		{in: Instr{Op: Pop, Imm: 0}, stack: []Word{1}, want: []Word{1}},
		{in: Instr{Op: LdLocal, Imm: 2}, i: 1, want: []Word{22}},
		{in: Instr{Op: LdMono, Imm: 3}, i: 2, want: []Word{33}},
		{in: Instr{Op: StLocal, Imm: 1}, i: 1, stack: []Word{99}, writes: []write{{1, 1}}},
		{in: Instr{Op: StMono, Imm: 0}, i: 1, stack: []Word{99}, writes: []write{{0, 0}, {1, 0}, {2, 0}}},
		{in: Instr{Op: LdIndex, Imm: 1}, stack: []Word{2}, want: []Word{13}},
		{in: Instr{Op: StIndex, Imm: 0}, i: 2, stack: []Word{3, 99}, writes: []write{{2, 3}}},
		{in: Instr{Op: LdRemote, Imm: 1}, stack: []Word{-1}, want: []Word{31}},
		{in: Instr{Op: LdRemote, Imm: 1}, stack: []Word{3}, want: []Word{11}},
		{in: Instr{Op: LdRemote, Imm: 1}, stack: []Word{7}, want: []Word{21}},
		{in: Instr{Op: StRemote, Imm: 2}, stack: []Word{-1, 99}, writes: []write{{2, 2}}},
		{in: Instr{Op: StRemote, Imm: 2}, stack: []Word{3, 99}, writes: []write{{0, 2}}},
		{in: Instr{Op: StRemote, Imm: 2}, stack: []Word{7, 99}, writes: []write{{1, 2}}},
		{in: Instr{Op: IProc}, i: 2, want: []Word{2}},
		{in: Instr{Op: NProc}, i: 1, want: []Word{3}},
		{in: Instr{Op: PushRet, Imm: 4}, stack: []Word{7}, ret: []int{1}, want: []Word{7}, wantR: []int{1, 4}},
	}
	// Every ALU opcode pops its right operand first.
	for op := Nop; op < numOps; op++ {
		switch {
		case IsBinary(op):
			cases = append(cases, peCase{in: Instr{Op: op}, stack: []Word{7, 9, 4}, want: []Word{7, EvalBinary(op, 9, 4)}})
		case IsUnary(op):
			cases = append(cases, peCase{in: Instr{Op: op}, stack: []Word{7, -9}, want: []Word{7, EvalUnary(op, -9)}})
		}
	}
	seen := make(map[Op]bool)
	for _, tc := range cases {
		seen[tc.in.Op] = true
		p := PE{Stack: slices.Clone(tc.stack), Ret: slices.Clone(tc.ret)}
		mem := peMem()
		if err := p.Exec(tc.in, tc.i, mem); err != nil {
			t.Errorf("%v on PE %d: %v", tc.in, tc.i, err)
			continue
		}
		if !slices.Equal(p.Stack, tc.want) || !slices.Equal(p.Ret, tc.wantR) {
			t.Errorf("%v on PE %d: stacks %v %v, want %v %v", tc.in, tc.i, p.Stack, p.Ret, tc.want, tc.wantR)
		}
		want := peMem()
		for _, w := range tc.writes {
			want[w.row][w.word] = 99
		}
		for r := range mem {
			if !slices.Equal(mem[r], want[r]) {
				t.Errorf("%v on PE %d: row %d = %v, want %v", tc.in, tc.i, r, mem[r], want[r])
			}
		}
	}
	for op := Nop; op < numOps; op++ {
		if !seen[op] {
			t.Errorf("%v not covered", op)
		}
	}
}

func TestPEExecFaults(t *testing.T) {
	for _, tc := range []struct {
		in    Instr
		stack []Word
		want  string
	}{
		{Instr{Op: Dup}, nil, "evaluation stack underflow"},
		{Instr{Op: Pop, Imm: 2}, []Word{1}, "evaluation stack underflow"},
		// The value is popped before the bad address is checked.
		{Instr{Op: StLocal, Imm: 9}, nil, "evaluation stack underflow"},
		{Instr{Op: Sub}, []Word{1}, "evaluation stack underflow"},
		{Instr{Op: LdLocal, Imm: 4}, nil, "memory address 4 out of range [0,4)"},
		{Instr{Op: StRemote, Imm: -1}, []Word{0, 1}, "memory address -1 out of range [0,4)"},
		{Instr{Op: LdIndex, Imm: 1}, []Word{-2}, "memory address -1 out of range [0,4)"},
		{Instr{Op: StIndex, Imm: 2}, []Word{2, 5}, "memory address 4 out of range [0,4)"},
		{Instr{Op: Op(250)}, []Word{1}, "unknown opcode op(250)"},
	} {
		p := PE{Stack: tc.stack}
		if err := p.Exec(tc.in, 0, peMem()); err == nil || err.Error() != tc.want {
			t.Errorf("%v on %v: err = %v, want %q", tc.in, tc.stack, err, tc.want)
		}
	}
}

func TestPEReset(t *testing.T) {
	p := PE{Stack: []Word{1, 2}, Ret: []int{3}}
	p.Reset()
	if len(p.Stack) != 0 || len(p.Ret) != 0 {
		t.Fatalf("after Reset: stack %v, ret %v", p.Stack, p.Ret)
	}
	p.Push(5)
	if w, err := p.Pop(); w != 5 || err != nil {
		t.Fatalf("Pop after Reset = %d, %v", w, err)
	}
}
