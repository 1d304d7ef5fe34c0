// Package interp implements the paper's §1.1 baseline: MIMD emulation
// by interpretation on SIMD hardware. Each PE keeps its own program
// counter and a private copy of the entire MIMD program; the SIMD
// control unit runs the classic fetch / decode / dispatch loop:
//
//  1. each PE fetches an "instruction" and updates its "pc";
//  2. each PE decodes it;
//  3. for each instruction type present: disable non-matching PEs,
//     simulate the instruction, re-enable;
//  4. loop.
//
// The three §1.1 overheads are charged explicitly: per-round fetch and
// decode cycles, per-PE program memory (ProgWordsPerPE), and the
// serialization over distinct instruction types present each round plus
// the interpreter loop-back cost. Results are bit-identical to the
// other engines on race-free programs, so the overhead comparison in
// the evaluation is apples-to-apples.
package interp

import (
	"context"
	"fmt"
	"slices"

	"msc/internal/cfg"
	"msc/internal/ir"
	"msc/internal/mscerr"
	"msc/internal/telemetry"
)

// Interpreter cost model (cycles), following the §1.1 step structure.
const (
	FetchCost  = 2 // load instruction word from PE memory
	DecodeCost = 4 // extract opcode and operand
	LoopCost   = 2 // jump back to the top of the interpreter
	// MaskCost is charged once per instruction type present in a round:
	// the "disable all PEs where IR holds a different type" step.
	MaskCost = 2
	// InstrWords is the per-instruction encoding footprint in the PE
	// memory image (opcode word + operand word).
	InstrWords = 2
)

// Config controls an interpreter run.
type Config struct {
	N             int
	InitialActive int
	// MaxRounds bounds interpreter rounds (default
	// mscerr.DefaultMaxSteps); exceeding it returns an
	// *mscerr.StepLimitError.
	MaxRounds int
	// Ctx, when non-nil, is checked every ctxCheckEvery rounds for
	// cooperative cancellation.
	Ctx context.Context
	// Profiler, when non-nil, receives sampled cycle attribution:
	// handler-body cycles fold to the dispatching group's block (the
	// first matching PE's — approximate, since one handler serves every
	// matching PE), and the fetch/decode/mask/loop overhead to the
	// dispatch frame (telemetry.NoBlock). Meta frame is telemetry.NoMeta
	// — the interpreter has no meta states.
	Profiler *telemetry.Profiler
}

// ctxCheckEvery is the round interval between cancellation checks.
const ctxCheckEvery = 1024

// Result reports an interpreter execution.
type Result struct {
	Mem [][]ir.Word
	// Time is total SIMD cycles; Overhead is the part spent on fetch,
	// decode, masking, and loop-back rather than simulated instructions.
	Time     int64
	Overhead int64
	// Rounds counts interpreter iterations; TypesPerRound accumulates
	// the number of distinct instruction types serialized per round.
	Rounds        int64
	TypesPerRound int64
	// BlockVisits[id] counts PE entries into MIMD state id (initial
	// activation, jumps, and spawns), the interpreter's analogue of the
	// SIMD engine's per-meta-state visit counts.
	BlockVisits []int64
	// PEHist[k] counts dispatch groups in which exactly k PEs matched the
	// instruction type — the interpreter's PE-utilization histogram: mass
	// at low k is the §1.1 serialization the conversion eliminates.
	PEHist []int64
	// ProgWordsPerPE is the per-PE memory the program copy occupies —
	// the §1.1 memory cost that meta-state conversion eliminates.
	ProgWordsPerPE int
	// Done flags PEs that reached End.
	Done []bool
}

// opKind is the dispatch class of a micro-instruction: ordinary opcodes
// dispatch by ir.Op; terminators get their own types.
type opKind int

const (
	kindOpBase opKind = iota // + int(ir.Op)
	kindEnd    opKind = 1000 + iota
	kindHalt
	kindGoto
	kindBranch
	kindRetBr
	kindSpawn
	kindWait // waiting at a barrier: contributes no work
)

type pe struct {
	ir.PE
	live     bool
	idle     bool
	blk      int
	idx      int // next instruction index; len(code) means terminator
	released bool
}

// Run interprets the MIMD state graph on the SIMD interpreter.
func Run(g *cfg.Graph, conf Config) (*Result, error) {
	if conf.N < 1 {
		return nil, fmt.Errorf("interp: N must be >= 1, got %d", conf.N)
	}
	if conf.InitialActive == 0 {
		conf.InitialActive = conf.N
	}
	if conf.InitialActive < 1 || conf.InitialActive > conf.N {
		return nil, fmt.Errorf("interp: InitialActive %d out of range [1,%d]", conf.InitialActive, conf.N)
	}
	if conf.MaxRounds == 0 {
		conf.MaxRounds = mscerr.DefaultMaxSteps
	}

	progWords := 0
	for _, b := range g.Blocks {
		if b != nil {
			progWords += InstrWords * (len(b.Code) + 1) // +1 terminator
		}
	}

	m := &machine{g: g, conf: conf, res: &Result{
		ProgWordsPerPE: progWords,
		Done:           make([]bool, conf.N),
		BlockVisits:    make([]int64, len(g.Blocks)),
		PEHist:         make([]int64, conf.N+1),
	}}
	m.mem = make([][]ir.Word, conf.N)
	m.pes = make([]pe, conf.N)
	for i := range m.pes {
		m.mem[i] = make([]ir.Word, g.Words)
		if i < conf.InitialActive {
			m.pes[i] = pe{live: true, blk: g.Entry}
			m.res.BlockVisits[g.Entry]++
		} else {
			m.pes[i] = pe{idle: true}
		}
	}

	for round := 0; ; round++ {
		if round >= conf.MaxRounds {
			return nil, &mscerr.StepLimitError{Engine: "interp", Limit: int64(conf.MaxRounds), Steps: int64(round)}
		}
		if conf.Ctx != nil && round%ctxCheckEvery == 0 {
			if err := conf.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("interp: run canceled at round %d: %w", round, err)
			}
		}
		anyWork, err := m.round()
		if err != nil {
			return nil, err
		}
		if !anyWork {
			// All runnable PEs are blocked: release barrier or finish.
			if !m.releaseBarrier() {
				break
			}
		}
	}

	for i := range m.pes {
		m.res.Done[i] = !m.pes[i].live && !m.pes[i].idle
	}
	m.res.Mem = m.mem
	return m.res, nil
}

type machine struct {
	g    *cfg.Graph
	conf Config
	mem  [][]ir.Word
	pes  []pe
	res  *Result
}

// kindOf classifies the micro-instruction PE i is about to execute.
func (m *machine) kindOf(i int) (opKind, *cfg.Block) {
	p := &m.pes[i]
	b := m.g.Block(p.blk)
	if b.Barrier && p.idx == 0 && !p.released {
		return kindWait, b
	}
	if p.idx < len(b.Code) {
		return kindOpBase + opKind(b.Code[p.idx].Op), b
	}
	switch b.Term {
	case cfg.End:
		return kindEnd, b
	case cfg.Halt:
		return kindHalt, b
	case cfg.Goto:
		return kindGoto, b
	case cfg.Branch:
		return kindBranch, b
	case cfg.RetBr:
		return kindRetBr, b
	case cfg.Spawn:
		return kindSpawn, b
	}
	return kindEnd, b
}

// round executes one fetch/decode/dispatch iteration. Returns false when
// no PE made progress (all waiting or none live).
func (m *machine) round() (bool, error) {
	// Gather the instruction type of every live PE.
	kinds := make(map[opKind][]int)
	for i := range m.pes {
		if !m.pes[i].live {
			continue
		}
		k, _ := m.kindOf(i)
		if k == kindWait {
			continue
		}
		kinds[k] = append(kinds[k], i)
	}
	if len(kinds) == 0 {
		return false, nil
	}

	m.res.Rounds++
	m.res.TypesPerRound += int64(len(kinds))
	m.res.Time += FetchCost + DecodeCost + LoopCost
	m.res.Overhead += FetchCost + DecodeCost + LoopCost
	if m.conf.Profiler != nil {
		m.conf.Profiler.Add(telemetry.NoMeta, telemetry.NoBlock, ir.Pos{}, FetchCost+DecodeCost+LoopCost)
	}

	// Deterministic dispatch order: ascending kind.
	order := make([]opKind, 0, len(kinds))
	for k := range kinds {
		order = append(order, k)
	}
	slices.Sort(order)

	for _, k := range order {
		m.res.Time += MaskCost
		m.res.Overhead += MaskCost
		if m.conf.Profiler != nil {
			m.conf.Profiler.Add(telemetry.NoMeta, telemetry.NoBlock, ir.Pos{}, MaskCost)
		}
		m.res.PEHist[len(kinds[k])]++
		if err := m.dispatch(k, kinds[k]); err != nil {
			return false, err
		}
	}
	return true, nil
}

// releaseBarrier opens the barrier for all waiting PEs; reports whether
// any PE was waiting.
func (m *machine) releaseBarrier() bool {
	any := false
	for i := range m.pes {
		p := &m.pes[i]
		if !p.live {
			continue
		}
		if k, _ := m.kindOf(i); k == kindWait {
			p.released = true
			any = true
		}
	}
	return any
}

// dispatch simulates one instruction type for its matching PEs.
func (m *machine) dispatch(k opKind, matching []int) error {
	if k >= kindEnd {
		// Terminator handlers.
		m.res.Time += 3 // handler body
		if m.conf.Profiler != nil && len(matching) > 0 {
			b := m.g.Block(m.pes[matching[0]].blk)
			m.conf.Profiler.Add(telemetry.NoMeta, b.ID, b.Pos, 3)
		}
		for _, i := range matching {
			p := &m.pes[i]
			b := m.g.Block(p.blk)
			switch k {
			case kindEnd:
				p.live = false
			case kindHalt:
				p.live = false
				p.idle = true
				p.Reset()
			case kindGoto:
				m.jump(p, b.Next)
			case kindBranch:
				c, err := p.Pop()
				if err != nil {
					return err
				}
				if ir.Truth(c) {
					m.jump(p, b.Next)
				} else {
					m.jump(p, b.FNext)
				}
			case kindRetBr:
				if len(p.Ret) == 0 {
					return fmt.Errorf("interp: PE %d return with empty return stack", i)
				}
				m.jump(p, p.Ret[len(p.Ret)-1])
				p.Ret = p.Ret[:len(p.Ret)-1]
			case kindSpawn:
				child := -1
				for j := range m.pes {
					if m.pes[j].idle {
						child = j
						break
					}
				}
				if child < 0 {
					return fmt.Errorf("interp: spawn with no free processor (width %d)", m.conf.N)
				}
				m.pes[child] = pe{live: true, blk: b.SpawnNext}
				m.res.BlockVisits[b.SpawnNext]++
				m.jump(p, b.Next)
			}
		}
		return nil
	}

	// Ordinary opcode handler: operand comes from each PE's fetched
	// instruction word, so one handler serves all matching PEs.
	op := ir.Op(k - kindOpBase)
	m.res.Time += int64(op.Cost()) + 1 // +1 operand access
	if m.conf.Profiler != nil && len(matching) > 0 {
		// One handler serves every matching PE; attribute its cost to the
		// first PE's block (deterministic, approximately proportional).
		b := m.g.Block(m.pes[matching[0]].blk)
		m.conf.Profiler.Add(telemetry.NoMeta, b.ID, b.Pos, int64(op.Cost())+1)
	}
	for _, i := range matching {
		p := &m.pes[i]
		b := m.g.Block(p.blk)
		in := b.Code[p.idx]
		if err := p.Exec(in, i, m.mem); err != nil {
			return fmt.Errorf("interp: PE %d state %d idx %d: %w", i, p.blk, p.idx, err)
		}
		p.idx++
	}
	return nil
}

// jump moves a PE to the start of a block. Arriving anywhere — even at
// another barrier — requires waiting afresh, so the release flag clears.
func (m *machine) jump(p *pe, blk int) {
	p.blk = blk
	p.idx = 0
	p.released = false
	m.res.BlockVisits[blk]++
}
