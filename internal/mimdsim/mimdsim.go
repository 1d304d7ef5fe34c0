// Package mimdsim is the MIMD reference machine: it executes a MIMD
// state graph with one independent program counter per processor, the
// execution model the paper's meta-state conversion must reproduce on
// SIMD hardware. It provides golden outputs for cross-engine
// equivalence tests and the ideal-MIMD timing baseline (per-PE clocks,
// explicit runtime barrier cost) that the evaluation compares against.
package mimdsim

import (
	"context"
	"fmt"

	"msc/internal/cfg"
	"msc/internal/ir"
	"msc/internal/mscerr"
	"msc/internal/telemetry"
)

// Config controls a simulation run.
type Config struct {
	// N is the machine width (number of processors). Must be >= 1.
	N int
	// InitialActive is how many PEs begin executing at the program
	// entry; the rest are idle in the free pool until spawned into use
	// (§3.2.5). Zero means all N.
	InitialActive int
	// BarrierCost is the runtime cost in cycles a MIMD machine pays to
	// synchronize at each barrier episode (the cost meta-state converted
	// code avoids, §5). Defaults to DefaultBarrierCost when zero.
	BarrierCost int
	// MaxBlocks bounds the number of blocks a single PE may execute,
	// guarding against non-terminating programs. Defaults to
	// mscerr.DefaultMaxSteps; exceeding it returns an
	// *mscerr.StepLimitError.
	MaxBlocks int
	// Ctx, when non-nil, is checked every ctxCheckEvery blocks per PE
	// for cooperative cancellation.
	Ctx context.Context
	// Profiler, when non-nil, receives sampled attribution of useful
	// cycles to MIMD blocks (meta frame telemetry.NoMeta — this machine
	// has no meta states). The simulator runs PEs on one goroutine, so
	// the profiler's single-consumer contract holds.
	Profiler *telemetry.Profiler
}

// ctxCheckEvery is the per-PE block interval between cancellation
// checks.
const ctxCheckEvery = 1024

// DefaultBarrierCost models a software barrier on a fine-grain MIMD
// machine (the "cost of runtime synchronization" of §5).
const DefaultBarrierCost = 32

// Result reports the outcome of a run.
type Result struct {
	// Mem is the final per-PE memory image.
	Mem [][]ir.Word
	// Time is the makespan: the largest per-PE completion clock.
	Time int64
	// Useful is the total cycles spent executing block code and
	// terminators across all PEs (excludes barrier wait and barrier
	// runtime cost).
	Useful int64
	// Clocks holds each PE's final clock.
	Clocks []int64
	// Blocks counts blocks executed across all PEs.
	Blocks int64
	// BlockVisits[id] counts executions of MIMD state id across all PEs
	// (sums to Blocks); BlockCycles[id] is the useful cycles those
	// executions cost (sums to Useful). Together they locate the MIMD
	// hot spots the meta-state profile is compared against.
	BlockVisits []int64
	BlockCycles []int64
	// Barriers counts barrier release episodes.
	Barriers int
	// Done flags PEs that ran to End (as opposed to idle/halted).
	Done []bool
}

type peStatus uint8

const (
	peIdle peStatus = iota
	peActive
	peAtBarrier
	peDone
)

type pe struct {
	ir.PE
	status   peStatus
	pc       int
	clock    int64
	released bool // barrier check suppressed once after release
	blocks   int
}

type machine struct {
	g   *cfg.Graph
	cfg Config
	mem [][]ir.Word
	pes []pe
	res *Result
}

// Run executes the graph to completion on the MIMD reference machine.
func Run(g *cfg.Graph, conf Config) (*Result, error) {
	if conf.N < 1 {
		return nil, fmt.Errorf("mimdsim: N must be >= 1, got %d", conf.N)
	}
	if conf.InitialActive == 0 {
		conf.InitialActive = conf.N
	}
	if conf.InitialActive < 1 || conf.InitialActive > conf.N {
		return nil, fmt.Errorf("mimdsim: InitialActive %d out of range [1,%d]", conf.InitialActive, conf.N)
	}
	if conf.BarrierCost == 0 {
		conf.BarrierCost = DefaultBarrierCost
	}
	if conf.MaxBlocks == 0 {
		conf.MaxBlocks = mscerr.DefaultMaxSteps
	}

	m := &machine{
		g:   g,
		cfg: conf,
		mem: make([][]ir.Word, conf.N),
		pes: make([]pe, conf.N),
		res: &Result{
			Clocks:      make([]int64, conf.N),
			Done:        make([]bool, conf.N),
			BlockVisits: make([]int64, len(g.Blocks)),
			BlockCycles: make([]int64, len(g.Blocks)),
		},
	}
	for i := range m.mem {
		m.mem[i] = make([]ir.Word, g.Words)
	}
	for i := 0; i < conf.InitialActive; i++ {
		m.pes[i] = pe{status: peActive, pc: g.Entry}
	}

	for {
		ran := false
		for i := range m.pes {
			if m.pes[i].status == peActive {
				if err := m.runPE(i); err != nil {
					return nil, err
				}
				ran = true
			}
		}
		if ran {
			continue
		}
		// Nobody is runnable: release a barrier episode or finish.
		var waiting []int
		for i := range m.pes {
			if m.pes[i].status == peAtBarrier {
				waiting = append(waiting, i)
			}
		}
		if len(waiting) == 0 {
			break
		}
		var release int64
		for _, i := range waiting {
			if m.pes[i].clock > release {
				release = m.pes[i].clock
			}
		}
		release += int64(m.cfg.BarrierCost)
		for _, i := range waiting {
			m.pes[i].clock = release
			m.pes[i].status = peActive
			m.pes[i].released = true
		}
		m.res.Barriers++
	}

	for i := range m.pes {
		m.res.Clocks[i] = m.pes[i].clock
		m.res.Done[i] = m.pes[i].status == peDone
		if m.pes[i].clock > m.res.Time {
			m.res.Time = m.pes[i].clock
		}
	}
	m.res.Mem = m.mem
	return m.res, nil
}

// runPE executes one PE until it blocks at a barrier, ends, or halts.
func (m *machine) runPE(i int) error {
	p := &m.pes[i]
	for {
		b := m.g.Block(p.pc)
		if b == nil {
			return fmt.Errorf("mimdsim: PE %d at nonexistent state %d", i, p.pc)
		}
		if b.Barrier && !p.released {
			p.status = peAtBarrier
			return nil
		}
		p.released = false
		p.blocks++
		if p.blocks > m.cfg.MaxBlocks {
			return &mscerr.StepLimitError{Engine: "mimd", Limit: int64(m.cfg.MaxBlocks), Steps: int64(p.blocks)}
		}
		// blocks was just incremented, so == 1 fires on the very first
		// block: a pre-canceled context must not execute the program.
		if m.cfg.Ctx != nil && p.blocks%ctxCheckEvery == 1 {
			if err := m.cfg.Ctx.Err(); err != nil {
				return fmt.Errorf("mimdsim: run canceled at PE %d block %d: %w", i, p.blocks, err)
			}
		}
		m.res.Blocks++
		m.res.BlockVisits[b.ID]++

		for _, in := range b.Code {
			if err := p.Exec(in, i, m.mem); err != nil {
				return fmt.Errorf("mimdsim: PE %d state %d: %w", i, b.ID, err)
			}
		}
		cost := int64(b.Cost())
		p.clock += cost
		m.res.Useful += cost
		m.res.BlockCycles[b.ID] += cost
		if m.cfg.Profiler != nil {
			m.cfg.Profiler.Add(telemetry.NoMeta, b.ID, b.Pos, cost)
		}

		switch b.Term {
		case cfg.End:
			p.status = peDone
			return nil
		case cfg.Halt:
			p.status = peIdle
			p.Reset()
			return nil
		case cfg.Goto:
			p.pc = b.Next
		case cfg.Branch:
			c, err := p.Pop()
			if err != nil {
				return err
			}
			if ir.Truth(c) {
				p.pc = b.Next
			} else {
				p.pc = b.FNext
			}
		case cfg.RetBr:
			if len(p.Ret) == 0 {
				return fmt.Errorf("mimdsim: PE %d return with empty return stack", i)
			}
			p.pc = p.Ret[len(p.Ret)-1]
			p.Ret = p.Ret[:len(p.Ret)-1]
		case cfg.Spawn:
			child := -1
			for j := range m.pes {
				if m.pes[j].status == peIdle {
					child = j
					break
				}
			}
			if child < 0 {
				return fmt.Errorf("mimdsim: spawn with no free processor (width %d)", m.cfg.N)
			}
			m.pes[child] = pe{status: peActive, pc: b.SpawnNext, clock: p.clock}
			p.pc = b.Next
		}
	}
}
