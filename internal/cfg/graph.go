// Package cfg builds and transforms the MIMD state graph (§2.1): a
// control-flow graph whose nodes are maximal basic blocks of stack code.
// Each block is one MIMD state with zero, one, or two exit arcs; barrier
// synchronization points and spawn points are flagged states. The graph
// is what the meta-state converter consumes.
package cfg

import (
	"fmt"
	"strings"

	"msc/internal/ir"
)

// TermKind classifies a block's terminator: how control leaves the state.
type TermKind uint8

const (
	// End marks the end of the process (§2.3: a MIMD state with no exit
	// arcs). The PE becomes done and contributes no further apc bits.
	End TermKind = iota
	// Halt releases the PE back to the free-processor pool (§3.2.5).
	Halt
	// Goto is unconditional sequencing to Next.
	Goto
	// Branch pops the condition: nonzero goes to Next (the TRUE
	// successor), zero to FNext (the FALSE successor). This is the
	// JumpF(false,true) of Listing 5.
	Branch
	// RetBr pops a return-site token from the PE's return stack and
	// branches to that block: the paper's return-as-multiway-branch
	// (§2.2). RetTargets enumerates every possible destination.
	RetBr
	// Spawn takes both paths (§3.2.5): the original process continues at
	// Next while newly created processes begin at SpawnNext.
	Spawn
)

func (k TermKind) String() string {
	switch k {
	case End:
		return "end"
	case Halt:
		return "halt"
	case Goto:
		return "goto"
	case Branch:
		return "branch"
	case RetBr:
		return "retbr"
	case Spawn:
		return "spawn"
	}
	return fmt.Sprintf("term(%d)", uint8(k))
}

// None marks an unused successor field.
const None = -1

// Block is one MIMD state: a maximal basic block of straight-line stack
// code plus a terminator.
type Block struct {
	ID         int
	Code       []ir.Instr
	Term       TermKind
	Next       int   // Goto/Branch/Spawn successor (Branch: TRUE arm)
	FNext      int   // Branch only: FALSE arm
	RetTargets []int // RetBr only: all possible return sites
	SpawnNext  int   // Spawn only: entry state of created processes
	Barrier    bool  // barrier-wait state (§2.6)
	Label      string
	// Pos is the source position of the statement the block's code
	// begins at (for barrier states: the wait statement); diagnostics
	// anchor here when no finer instruction position applies.
	Pos ir.Pos
}

// Cost returns the block's execution time in cycles: code cost plus the
// terminator's dispatch cost. Barrier-wait states report their true
// (usually zero) cost; waiting time is a property of the schedule, not
// the state.
func (b *Block) Cost() int {
	return ir.CodeCost(b.Code) + termCost(b.Term)
}

func termCost(k TermKind) int {
	switch k {
	case End:
		return 0
	case Halt, Goto:
		return 1
	case Branch, Spawn:
		return 2
	case RetBr:
		return 3
	}
	return 0
}

// Succs returns every possible successor state of b.
func (b *Block) Succs() []int {
	return b.AppendSuccs(nil)
}

// AppendSuccs appends every possible successor state of b to dst and
// returns the extended slice, in Succs order: hot walks pass a reused
// buffer (dst[:0]) instead of allocating a slice per block.
func (b *Block) AppendSuccs(dst []int) []int {
	switch b.Term {
	case Goto:
		return append(dst, b.Next)
	case Branch:
		if b.Next == b.FNext {
			return append(dst, b.Next)
		}
		return append(dst, b.Next, b.FNext)
	case RetBr:
		return append(dst, b.RetTargets...)
	case Spawn:
		return append(dst, b.Next, b.SpawnNext)
	}
	return dst
}

// Graph is the MIMD state graph for a whole program. Blocks is indexed
// by block ID after Renumber; before that, IDs are stable but the slice
// may contain nil holes left by removed blocks.
type Graph struct {
	Blocks []*Block
	Entry  int // the MIMD start state all PEs begin in (SPMD)

	// Memory layout inherited from the front end plus builder temps.
	MonoSlots int // replicated slots [0, MonoSlots)
	Words     int // total per-PE memory words

	// RetSlot maps a function name to the slot holding its return value;
	// used by drivers to read back results.
	RetSlot map[string]int
	// VarSlot maps a global variable name to its slot.
	VarSlot map[string]int
}

// Block returns the block with the given ID, or nil.
func (g *Graph) Block(id int) *Block {
	if id < 0 || id >= len(g.Blocks) {
		return nil
	}
	return g.Blocks[id]
}

// NumBlocks counts live (non-nil) blocks.
func (g *Graph) NumBlocks() int {
	n := 0
	for _, b := range g.Blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// newBlock appends a fresh empty block and returns it.
func (g *Graph) newBlock(label string) *Block {
	b := &Block{ID: len(g.Blocks), Term: End, Next: None, FNext: None, SpawnNext: None, Label: label}
	g.Blocks = append(g.Blocks, b)
	return b
}

// String renders the graph as readable text, one block per stanza.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entry: %d\n", g.Entry)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		flags := ""
		if b.Barrier {
			flags = " [barrier]"
		}
		fmt.Fprintf(&sb, "state %d%s (%s, cost %d):\n", b.ID, flags, b.Label, b.Cost())
		for _, in := range b.Code {
			fmt.Fprintf(&sb, "    %s\n", in)
		}
		switch b.Term {
		case End:
			sb.WriteString("    end\n")
		case Halt:
			sb.WriteString("    halt\n")
		case Goto:
			fmt.Fprintf(&sb, "    goto %d\n", b.Next)
		case Branch:
			fmt.Fprintf(&sb, "    branch true->%d false->%d\n", b.Next, b.FNext)
		case RetBr:
			fmt.Fprintf(&sb, "    retbr %v\n", b.RetTargets)
		case Spawn:
			fmt.Fprintf(&sb, "    spawn parent->%d child->%d\n", b.Next, b.SpawnNext)
		}
	}
	return sb.String()
}

// Dot renders the graph in Graphviz dot format (Figure 1 style).
func (g *Graph) Dot(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", title)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		shape := "circle"
		if b.Barrier {
			shape = "doublecircle"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%d\" shape=%s];\n", b.ID, b.ID, shape)
		switch b.Term {
		case Goto:
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", b.ID, b.Next)
		case Branch:
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"T\"];\n  n%d -> n%d [label=\"F\"];\n",
				b.ID, b.Next, b.ID, b.FNext)
		case RetBr:
			for _, t := range b.RetTargets {
				fmt.Fprintf(&sb, "  n%d -> n%d [label=\"ret\"];\n", b.ID, t)
			}
		case Spawn:
			fmt.Fprintf(&sb, "  n%d -> n%d;\n  n%d -> n%d [label=\"spawn\" style=dashed];\n",
				b.ID, b.Next, b.ID, b.SpawnNext)
		}
	}
	fmt.Fprintf(&sb, "  start [shape=point];\n  start -> n%d;\n}\n", g.Entry)
	return sb.String()
}

// Clone returns a deep copy of the graph (blocks, code, maps).
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Blocks:    make([]*Block, len(g.Blocks)),
		Entry:     g.Entry,
		MonoSlots: g.MonoSlots,
		Words:     g.Words,
		RetSlot:   make(map[string]int, len(g.RetSlot)),
		VarSlot:   make(map[string]int, len(g.VarSlot)),
	}
	for i, b := range g.Blocks {
		if b == nil {
			continue
		}
		nb := *b
		nb.Code = append([]ir.Instr(nil), b.Code...)
		nb.RetTargets = append([]int(nil), b.RetTargets...)
		ng.Blocks[i] = &nb
	}
	for k, v := range g.RetSlot {
		ng.RetSlot[k] = v
	}
	for k, v := range g.VarSlot {
		ng.VarSlot[k] = v
	}
	return ng
}
