package ir

import "fmt"

// PE is one processor's scalar execution state: its evaluation stack and
// its return stack (PushRet tokens, popped by the RetBr terminator).
// Exec is the one per-PE definition of every in-block opcode, shared by
// the MIMD reference machine and the §1.1 interpreter, which differ only
// in how they schedule PEs and charge cycles.
type PE struct {
	Stack []Word
	Ret   []int
}

// Push pushes w onto the evaluation stack.
func (p *PE) Push(w Word) { p.Stack = append(p.Stack, w) }

// Pop pops the top of the evaluation stack.
func (p *PE) Pop() (Word, error) {
	s := p.Stack
	if len(s) == 0 {
		return 0, fmt.Errorf("evaluation stack underflow")
	}
	w := s[len(s)-1]
	p.Stack = s[:len(s)-1]
	return w, nil
}

// Reset empties both stacks, as a halt does.
func (p *PE) Reset() {
	p.Stack = p.Stack[:0]
	p.Ret = p.Ret[:0]
}

// PEIndex normalizes a parallel-subscript processor number by wrapping
// it modulo the machine width n (identical in every engine).
func PEIndex(w Word, n int) int {
	v := int(w) % n
	if v < 0 {
		v += n
	}
	return v
}

// slot validates a memory address against a PE's words.
func slot(addr int64, words int) (int, error) {
	if addr < 0 || addr >= int64(words) {
		return 0, fmt.Errorf("memory address %d out of range [0,%d)", addr, words)
	}
	return int(addr), nil
}

// Exec executes in as PE i of a machine whose memory holds one row per
// PE: the machine width is len(mem) and each PE has len(mem[i]) words.
// An instruction pops its operands before it checks its address.
func (p *PE) Exec(in Instr, i int, mem [][]Word) error {
	words := len(mem[i])
	switch in.Op {
	case Nop:
	case PushC:
		p.Push(Word(in.Imm))
	case Dup:
		w, err := p.Pop()
		if err != nil {
			return err
		}
		p.Push(w)
		p.Push(w)
	case Pop:
		for k := int64(0); k < in.Imm; k++ {
			if _, err := p.Pop(); err != nil {
				return err
			}
		}
	case LdLocal, LdMono:
		a, err := slot(in.Imm, words)
		if err != nil {
			return err
		}
		p.Push(mem[i][a])
	case StLocal:
		w, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm, words)
		if err != nil {
			return err
		}
		mem[i][a] = w
	case StMono:
		w, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm, words)
		if err != nil {
			return err
		}
		for q := range mem {
			mem[q][a] = w
		}
	case LdIndex:
		idx, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm+int64(idx), words)
		if err != nil {
			return err
		}
		p.Push(mem[i][a])
	case StIndex:
		w, err := p.Pop()
		if err != nil {
			return err
		}
		idx, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm+int64(idx), words)
		if err != nil {
			return err
		}
		mem[i][a] = w
	case LdRemote:
		pw, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm, words)
		if err != nil {
			return err
		}
		p.Push(mem[PEIndex(pw, len(mem))][a])
	case StRemote:
		w, err := p.Pop()
		if err != nil {
			return err
		}
		pw, err := p.Pop()
		if err != nil {
			return err
		}
		a, err := slot(in.Imm, words)
		if err != nil {
			return err
		}
		mem[PEIndex(pw, len(mem))][a] = w
	case IProc:
		p.Push(Word(i))
	case NProc:
		p.Push(Word(len(mem)))
	case PushRet:
		p.Ret = append(p.Ret, int(in.Imm))
	default:
		switch {
		case IsBinary(in.Op):
			b, err := p.Pop()
			if err != nil {
				return err
			}
			a, err := p.Pop()
			if err != nil {
				return err
			}
			p.Push(EvalBinary(in.Op, a, b))
		case IsUnary(in.Op):
			a, err := p.Pop()
			if err != nil {
				return err
			}
			p.Push(EvalUnary(in.Op, a))
		default:
			return fmt.Errorf("unknown opcode %v", in.Op)
		}
	}
	return nil
}
