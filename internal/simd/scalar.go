package simd

import (
	"fmt"

	"msc/internal/bitset"
	"msc/internal/ir"
	"msc/internal/mscerr"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// This file preserves the pre-vectorization VM — array-of-structs PE
// state, per-PE branch guards, O(N) scans — as the semantic reference
// for the struct-of-arrays engine in vm.go. ReferenceRun must stay
// observationally identical to Run (same Result bytes, same error
// text, same event stream); simd_vectorized_test.go at the repo root
// enforces that over the corpus, so treat this implementation as
// frozen: behavior changes belong in both engines or neither.

type refPE struct {
	pc, npc  int
	stack    []ir.Word
	retStack []int
}

type refVM struct {
	p    *Program
	conf Config
	mem  [][]ir.Word
	pes  []refPE
	res  *Result
	prof *telemetry.Profiler // nil when no profiling is attached
}

// ReferenceRun executes a compiled meta-state program on the scalar
// reference machine. It honors the same Config contract as Run except
// Workers (the reference is always sequential) and exists for
// differential testing and benchmarking against the vectorized engine.
func ReferenceRun(p *Program, conf Config) (*Result, error) {
	conf, entry, rows, err := prepare(p, conf)
	if err != nil {
		return nil, err
	}

	m := &refVM{
		p:    p,
		conf: conf,
		mem:  make([][]ir.Word, conf.N),
		pes:  make([]refPE, conf.N),
		res: &Result{
			Done:      make([]bool, conf.N),
			MetaStats: make([]MetaStat, len(p.Meta)),
			PEHist:    make([]int64, PEHistLen(conf.N)),
		},
	}
	m.prof = conf.Profiler
	for i := range m.pes {
		m.mem[i] = make([]ir.Word, p.Words)
		if i < conf.InitialActive {
			m.pes[i] = refPE{pc: entry, npc: entry}
		} else {
			m.pes[i] = refPE{pc: PCIdle, npc: PCIdle}
		}
	}

	cur := p.Start
	for step := 0; ; step++ {
		if step >= conf.MaxMeta {
			return nil, &mscerr.StepLimitError{Engine: "simd", Limit: int64(conf.MaxMeta), Steps: int64(step)}
		}
		if conf.Ctx != nil && step%ctxCheckEvery == 0 {
			if err := conf.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("simd: run canceled at step %d: %w", step, err)
			}
		}
		mc := p.Meta[cur]
		m.res.MetaExecs++
		m.res.MetaStats[cur].Visits++
		if rows {
			if err := conf.Sink.Emit(m.timelineEvent(int64(step), cur)); err != nil {
				return nil, fmt.Errorf("simd: trace sink: %w", err)
			}
		}
		if err := m.execBody(mc); err != nil {
			return nil, fmt.Errorf("simd: ms%d: %w", cur, err)
		}
		next, done, err := m.dispatch(mc)
		if err != nil {
			return nil, fmt.Errorf("simd: ms%d: %w", cur, err)
		}
		if conf.Sink != nil {
			e := &obs.Event{
				Step: int64(step), Cycle: m.res.Time,
				Meta: cur, Set: mc.Set.String(),
			}
			if done {
				e.Kind = obs.EventExit
			} else {
				live := 0
				for i := range m.pes {
					if m.pes[i].pc >= 0 {
						live++
					}
				}
				e.Kind = obs.EventMeta
				e.APC = m.apc().String()
				e.Live = live
				e.Next = next
			}
			if err := conf.Sink.Emit(e); err != nil {
				return nil, fmt.Errorf("simd: trace sink: %w", err)
			}
		}
		if done {
			break
		}
		cur = next
	}

	for i := range m.pes {
		m.res.Done[i] = m.pes[i].pc == PCDone
	}
	m.res.Mem = m.mem
	return m.res, nil
}

// execBody runs every slot of a meta state. Guards test the pc latched
// at meta-state entry; pc updates land in npc and commit afterwards, so
// a PE can never fall through into another MIMD state's code within the
// same meta state.
func (m *refVM) execBody(mc *MetaCode) error {
	for i := range m.pes {
		m.pes[i].npc = m.pes[i].pc
	}
	live := int64(0)
	for i := range m.pes {
		if m.pes[i].pc >= 0 {
			live++
		}
	}
	st := &m.res.MetaStats[mc.ID]
	for si := range mc.Slots {
		s := &mc.Slots[si]
		cost := int64(s.Cost())
		m.res.Time += cost
		m.res.BodyCycles += cost
		m.res.SlotExecs++
		st.Cycles += cost
		st.BodyCycles += cost
		st.LivePECycles += cost * live
		if m.prof != nil {
			m.prof.Add(mc.ID, s.Block, s.Pos, cost)
		}

		enabled := enabledPEs(m.pes, s.Guard)
		m.res.EnabledCycles += cost * int64(len(enabled))
		m.res.LiveIdleCycles += cost * (live - int64(len(enabled)))
		st.EnabledPECycles += cost * int64(len(enabled))
		m.res.PEHist[PEHistIndex(m.conf.N, len(enabled))] += cost
		if len(enabled) == 0 {
			continue
		}
		switch s.Kind {
		case SlotExec:
			if err := m.exec(enabled, s.Instr); err != nil {
				return err
			}
		case SlotSetPC:
			for _, i := range enabled {
				m.pes[i].npc = s.To
			}
		case SlotJumpF:
			for _, i := range enabled {
				c, err := m.pop(i)
				if err != nil {
					return err
				}
				if ir.Truth(c) {
					m.pes[i].npc = s.To
				} else {
					m.pes[i].npc = s.FTo
				}
			}
		case SlotEnd:
			for _, i := range enabled {
				m.pes[i].npc = PCDone
			}
		case SlotHalt:
			for _, i := range enabled {
				m.pes[i].npc = PCIdle
				m.pes[i].stack = m.pes[i].stack[:0]
				m.pes[i].retStack = m.pes[i].retStack[:0]
			}
		case SlotRetBr:
			for _, i := range enabled {
				rs := m.pes[i].retStack
				if len(rs) == 0 {
					return fmt.Errorf("PE %d return with empty return stack", i)
				}
				m.pes[i].npc = rs[len(rs)-1]
				m.pes[i].retStack = rs[:len(rs)-1]
			}
		case SlotSpawn:
			for _, parent := range enabled {
				child := -1
				for j := range m.pes {
					if m.pes[j].pc == PCIdle && m.pes[j].npc == PCIdle {
						child = j
						break
					}
				}
				if child < 0 {
					return fmt.Errorf("spawn with no free processor (width %d)", m.conf.N)
				}
				m.pes[child].npc = s.ChildTo
				m.pes[parent].npc = s.To
			}
		}
	}
	for i := range m.pes {
		m.pes[i].pc = m.pes[i].npc
	}
	return nil
}

// timelineEvent captures one per-PE occupancy row as a typed event.
func (m *refVM) timelineEvent(step int64, ms int) *obs.Event {
	pes := make([]int, len(m.pes))
	for i := range m.pes {
		switch pc := m.pes[i].pc; {
		case pc == PCDone:
			pes[i] = obs.PEDone
		case pc == PCIdle:
			pes[i] = obs.PEIdle
		case m.p.Barriers.Has(pc):
			pes[i] = obs.PEWait
		default:
			pes[i] = pc
		}
	}
	return &obs.Event{Kind: obs.EventTimeline, Step: step, Cycle: m.res.Time, Meta: ms, PEs: pes}
}

// apc computes the aggregate program counter: the global-or of one bit
// per live pc value (§3.2.3).
func (m *refVM) apc() *bitset.Set {
	agg := bitset.New(m.p.NStates)
	for i := range m.pes {
		if m.pes[i].pc >= 0 {
			agg.Add(m.pes[i].pc)
		}
	}
	return agg
}

// dispatch selects the next meta state from the aggregate (§3.2).
func (m *refVM) dispatch(mc *MetaCode) (next int, done bool, err error) {
	tr := &mc.Trans
	m.res.Time += int64(tr.Cost())
	m.res.DispatchCycles += int64(tr.Cost())
	m.res.MetaStats[mc.ID].Cycles += int64(tr.Cost())
	if m.prof != nil {
		m.prof.Add(mc.ID, telemetry.NoBlock, ir.Pos{}, int64(tr.Cost()))
	}
	return dispatchAgg(m.p, tr, m.apc())
}

// enabledPEs lists live PEs whose latched pc is in the guard.
func enabledPEs(pes []refPE, guard *bitset.Set) []int {
	var out []int
	for i := range pes {
		if pc := pes[i].pc; pc >= 0 && guard.Has(pc) {
			out = append(out, i)
		}
	}
	return out
}

func (m *refVM) push(i int, w ir.Word) { m.pes[i].stack = append(m.pes[i].stack, w) }

func (m *refVM) pop(i int) (ir.Word, error) {
	s := m.pes[i].stack
	if len(s) == 0 {
		return 0, fmt.Errorf("PE %d evaluation stack underflow", i)
	}
	w := s[len(s)-1]
	m.pes[i].stack = s[:len(s)-1]
	return w, nil
}

func (m *refVM) slot(addr int64) (int, error) {
	if addr < 0 || addr >= int64(m.p.Words) {
		return 0, fmt.Errorf("memory address %d out of range [0,%d)", addr, m.p.Words)
	}
	return int(addr), nil
}

// exec runs one instruction on every enabled PE (ascending order, which
// fixes the outcome of write conflicts deterministically: the highest
// enabled PE wins, matching the MIMD reference's phase order).
func (m *refVM) exec(enabled []int, in ir.Instr) error {
	switch in.Op {
	case ir.Nop:
	case ir.PushC:
		for _, i := range enabled {
			m.push(i, ir.Word(in.Imm))
		}
	case ir.Dup:
		for _, i := range enabled {
			w, err := m.pop(i)
			if err != nil {
				return err
			}
			m.push(i, w)
			m.push(i, w)
		}
	case ir.Pop:
		for _, i := range enabled {
			for k := int64(0); k < in.Imm; k++ {
				if _, err := m.pop(i); err != nil {
					return err
				}
			}
		}
	case ir.LdLocal, ir.LdMono:
		a, err := m.slot(in.Imm)
		if err != nil {
			return err
		}
		for _, i := range enabled {
			m.push(i, m.mem[i][a])
		}
	case ir.StLocal:
		a, err := m.slot(in.Imm)
		if err != nil {
			return err
		}
		for _, i := range enabled {
			w, err := m.pop(i)
			if err != nil {
				return err
			}
			m.mem[i][a] = w
		}
	case ir.StMono:
		a, err := m.slot(in.Imm)
		if err != nil {
			return err
		}
		var val ir.Word
		for _, i := range enabled {
			w, err := m.pop(i)
			if err != nil {
				return err
			}
			val = w // highest enabled PE wins
		}
		for q := range m.mem {
			m.mem[q][a] = val
		}
	case ir.LdIndex:
		for _, i := range enabled {
			idx, err := m.pop(i)
			if err != nil {
				return err
			}
			a, err := m.slot(in.Imm + int64(idx))
			if err != nil {
				return err
			}
			m.push(i, m.mem[i][a])
		}
	case ir.StIndex:
		for _, i := range enabled {
			w, err := m.pop(i)
			if err != nil {
				return err
			}
			idx, err := m.pop(i)
			if err != nil {
				return err
			}
			a, err := m.slot(in.Imm + int64(idx))
			if err != nil {
				return err
			}
			m.mem[i][a] = w
		}
	case ir.LdRemote:
		a, err := m.slot(in.Imm)
		if err != nil {
			return err
		}
		// Router reads are simultaneous: gather first, then push.
		vals := make([]ir.Word, len(enabled))
		for k, i := range enabled {
			p, err := m.pop(i)
			if err != nil {
				return err
			}
			vals[k] = m.mem[ir.PEIndex(p, m.conf.N)][a]
		}
		for k, i := range enabled {
			m.push(i, vals[k])
		}
	case ir.StRemote:
		a, err := m.slot(in.Imm)
		if err != nil {
			return err
		}
		for _, i := range enabled {
			w, err := m.pop(i)
			if err != nil {
				return err
			}
			p, err := m.pop(i)
			if err != nil {
				return err
			}
			m.mem[ir.PEIndex(p, m.conf.N)][a] = w
		}
	case ir.IProc:
		for _, i := range enabled {
			m.push(i, ir.Word(i))
		}
	case ir.NProc:
		for _, i := range enabled {
			m.push(i, ir.Word(m.conf.N))
		}
	case ir.PushRet:
		for _, i := range enabled {
			m.pes[i].retStack = append(m.pes[i].retStack, int(in.Imm))
		}
	default:
		switch {
		case ir.IsBinary(in.Op):
			for _, i := range enabled {
				b, err := m.pop(i)
				if err != nil {
					return err
				}
				a, err := m.pop(i)
				if err != nil {
					return err
				}
				m.push(i, ir.EvalBinary(in.Op, a, b))
			}
		case ir.IsUnary(in.Op):
			for _, i := range enabled {
				a, err := m.pop(i)
				if err != nil {
					return err
				}
				m.push(i, ir.EvalUnary(in.Op, a))
			}
		default:
			return fmt.Errorf("unknown opcode %v", in.Op)
		}
	}
	return nil
}
