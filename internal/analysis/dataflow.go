package analysis

import (
	"msc/internal/bitset"
	"msc/internal/cfg"
)

// Direction selects which way facts flow through the state graph.
type Direction uint8

const (
	Forward Direction = iota
	Backward
)

// MeetKind selects how facts from converging paths combine: Union for
// may-analyses ("holds on some path"), Intersect for must-analyses
// ("holds on every path").
type MeetKind uint8

const (
	Union MeetKind = iota
	Intersect
)

// Problem is a monotone bit-vector dataflow problem over a MIMD state
// graph. Facts are bit sets over [0, Universe); Transfer maps a block's
// flow input to its flow output (entry→exit facts for Forward
// problems, exit→entry facts for Backward ones) and must be monotone.
type Problem struct {
	Dir  Direction
	Meet MeetKind
	// Universe is the fact-space width; Intersect problems use the full
	// universe as the optimistic initial value.
	Universe int
	// Boundary is the fact set at the flow boundary: the graph entry for
	// Forward problems, every exitless block (End/Halt terminators and
	// never-called function exits) for Backward ones. nil means empty.
	Boundary *bitset.Set
	// Transfer writes the block's flow output for flow input in into
	// out, overwriting whatever out held. It must not mutate in, and
	// must not keep either set: Solve reuses both.
	Transfer func(b *cfg.Block, in, out *bitset.Set)
}

// Result holds the fixed-point facts per block, indexed by block ID
// (the block's index in Graph.Blocks; nil holes have nil entries). In
// is always the fact set at block entry and Out the set at block exit,
// regardless of the problem's direction.
type Result struct {
	In, Out []*bitset.Set
}

// Solve runs worklist iteration to the (least for Union, greatest for
// Intersect) fixed point. Spawn edges and multiway-return edges are
// ordinary graph edges: facts flow into spawned children and across
// call returns.
//
// The solver works over dense block indices: the dependency edges are
// flat arrays built once, the worklist is a FIFO ring seeded in block
// order, the meet writes into the block's own input set, and Transfer
// writes into a scratch set that is swapped in as the block's output
// only when it differs. Apart from Transfer's own work, a Solve
// allocates the same amount however many visits the fixpoint takes.
func Solve(g *cfg.Graph, p Problem) *Result {
	n := len(g.Blocks)
	boundary := p.Boundary
	if boundary == nil {
		boundary = bitset.New(0)
	}
	top := bitset.New(p.Universe)
	if p.Meet == Intersect {
		for i := 0; i < p.Universe; i++ {
			top.Add(i)
		}
	}

	// Dependency edges as flat adjacency arrays: the blocks a node's
	// flow input meets over (srcs) and the blocks to re-queue when its
	// output changes (deps), each in the order the graph lists them.
	from, to := edgeList(g)
	if p.Dir == Backward {
		from, to = to, from
	}
	srcStart, srcs := adjacency(n, to, from)
	depStart, deps := adjacency(n, from, to)
	atBoundary := make([]bool, n)
	var succs []int
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		if p.Dir == Forward {
			atBoundary[b.ID] = b.ID == g.Entry
		} else {
			succs = b.AppendSuccs(succs[:0])
			atBoundary[b.ID] = len(succs) == 0
		}
	}

	sets := bitset.MakeSets(2*n+1, p.Universe)
	in := make([]*bitset.Set, n)
	out := make([]*bitset.Set, n)
	queued := make([]bool, n)
	ring := make([]int32, 0, n)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		in[b.ID], out[b.ID] = &sets[2*b.ID], &sets[2*b.ID+1]
		out[b.ID].CopyFrom(top)
		queued[b.ID] = true
		ring = append(ring, int32(b.ID))
	}
	scratch := &sets[2*n]

	// FIFO over a ring of capacity n, seeded in block order: the queued
	// flags keep every block in it at most once.
	head, count := 0, len(ring)
	ring = ring[:n]
	for count > 0 {
		id := ring[head]
		head = (head + 1) % n
		count--
		queued[id] = false

		acc := in[id]
		met := false
		if atBoundary[id] {
			acc.CopyFrom(boundary)
			met = true
		}
		for _, src := range srcs[srcStart[id]:srcStart[id+1]] {
			switch {
			case !met:
				acc.CopyFrom(out[src])
				met = true
			case p.Meet == Union:
				acc.UnionWith(out[src])
			default:
				acc.IntersectWith(out[src])
			}
		}
		if !met {
			// No boundary and no sources: unreachable in the flow
			// direction; keep the optimistic initial value.
			acc.CopyFrom(top)
		}
		p.Transfer(g.Blocks[id], acc, scratch)
		if scratch.Equal(out[id]) {
			continue
		}
		out[id], scratch = scratch, out[id]
		for _, d := range deps[depStart[id]:depStart[id+1]] {
			if !queued[d] {
				queued[d] = true
				ring[(head+count)%n] = d
				count++
			}
		}
	}

	res := &Result{In: in, Out: out}
	if p.Dir == Backward {
		res.In, res.Out = out, in
	}
	return res
}

// edgeList returns g's arcs between live blocks as parallel from/to
// arrays, in graph order: blocks by ID, each block's successors in
// Succs order.
func edgeList(g *cfg.Graph) (from, to []int32) {
	var succs []int
	e := 0
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		succs = b.AppendSuccs(succs[:0])
		for _, s := range succs {
			if g.Block(s) != nil {
				e++
			}
		}
	}
	from, to = make([]int32, 0, e), make([]int32, 0, e)
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		succs = b.AppendSuccs(succs[:0])
		for _, s := range succs {
			if g.Block(s) != nil {
				from, to = append(from, int32(b.ID)), append(to, int32(s))
			}
		}
	}
	return from, to
}

// adjacency groups the edges by key in CSR form: the values of the
// edges keyed k are list[start[k]:start[k+1]], in edge order.
func adjacency(n int, keys, vals []int32) (start, list []int32) {
	start = make([]int32, n+1)
	for _, k := range keys {
		start[k]++
	}
	for k := 1; k <= n; k++ {
		start[k] += start[k-1]
	}
	// start[k] is now the end of group k. Filling each group from its
	// end while walking the edges backward keeps edge order and leaves
	// start[k] at the group's beginning.
	list = make([]int32, len(vals))
	for e := len(keys) - 1; e >= 0; e-- {
		k := keys[e]
		start[k]--
		list[start[k]] = vals[e]
	}
	return start, list
}
