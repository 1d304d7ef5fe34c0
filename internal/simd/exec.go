package simd

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"msc/internal/bitset"
	"msc/internal/ir"
)

// execBody runs every slot of a meta state. Guards test the pc latched
// at meta-state entry; pc updates land in npc, marked in the dirty
// mask, and commit afterwards, so a PE can never fall through into
// another MIMD state's code within the same meta state. The occupancy
// masks reflect committed pcs for the whole body — they ARE the latch —
// which is what lets every slot's enable set be a word OR of its
// guard's occupied member states.
//
// Slots execute in runs: each maximal sequence of chunk-local slots is
// one forChunks pass in which a chunk executes the whole sequence in
// slot order, so its PEs' stacks, memory rows and pcs stream through
// the cache once per run instead of once per slot. A chunk-local slot
// reads and writes only its own chunk's PEs, so every chunk reaches
// each slot in the state slot-by-slot execution would leave it in. A
// cross-chunk slot (see crossChunk) is a run of its own.
func (m *vm) execBody(mc *MetaCode) error {
	n := len(mc.Slots)
	for i := 0; i < n; {
		j := i + 1
		if !crossChunk(&mc.Slots[i]) {
			for j < n && !crossChunk(&mc.Slots[j]) {
				j++
			}
		}
		if err := m.execRun(mc, i, j); err != nil {
			return err
		}
		i = j
	}
	if n == 0 || crossChunk(&mc.Slots[n-1]) {
		// Otherwise the final run's pass committed each chunk.
		m.forChunks(m.commitChunk)
	}
	m.commit()
	return nil
}

// crossChunk reports whether a slot touches PEs outside each enabled
// PE's own chunk: spawn claims free PEs anywhere, StMono broadcasts to
// every PE, and StRemote and LdRemote go through the router.
func crossChunk(s *Slot) bool {
	if s.Kind == SlotSpawn {
		return true
	}
	op := s.Instr.Op
	return s.Kind == SlotExec && (op == ir.StMono || op == ir.StRemote || op == ir.LdRemote)
}

// execRun executes body slots [i, j) — one cross-chunk slot or a run of
// chunk-local ones — and then charges them. The failure reported is the
// one at the lowest (slot, chunk), which is the one slot-by-slot
// execution hits first, and charging stops at its slot, so the Result
// and the Profiler see exactly the slots slot-by-slot execution charges.
// A run that ends the body also commits each chunk at the end of its
// pass, while the chunk's pcs are still in cache: no later slot can
// write them, and the body saves a pass over every chunk.
func (m *vm) execRun(mc *MetaCode, i, j int) error {
	refs := m.lay.refs(mc.ID)
	final := j == len(mc.Slots)
	enabled := false
	for si := i; si < j; si++ {
		m.ens[si] = m.census(m.lay.members(refs[si]))
		enabled = enabled || m.ens[si] > 0
	}
	last, err := j-1, error(nil)
	switch s := &mc.Slots[i]; {
	case crossChunk(s):
		if enabled {
			err = m.execCross(s, refs[i])
		}
	case enabled || final:
		var slot int
		slot, err = m.forChunks(func(ws *wscratch, c int) error {
			for si := i; si < j; si++ {
				if m.ens[si] == 0 {
					continue
				}
				if err := m.execLocal(&mc.Slots[si], refs[si], c); err != nil {
					m.chunks[c].slot = si
					return err
				}
			}
			if final {
				m.commitChunk(ws, c)
			}
			return nil
		})
		if err != nil {
			last = slot
		}
	}
	for si := i; si <= last; si++ {
		m.charge(mc, si)
	}
	return err
}

// charge adds body slot si's cycles and enable census (m.ens[si]) to
// the Result and the Profiler. Only the coordinator charges — chunk
// workers never touch the profiler — so the profiler's single-writer
// contract survives Workers > 1 untouched.
func (m *vm) charge(mc *MetaCode, si int) {
	s := &mc.Slots[si]
	cost, en := int64(s.Cost()), m.ens[si]
	m.res.Time += cost
	m.res.BodyCycles += cost
	m.res.SlotExecs++
	m.res.EnabledCycles += cost * en
	m.res.LiveIdleCycles += cost * (m.live - en)
	m.res.PEHist[PEHistIndex(m.n, int(en))] += cost
	st := &m.res.MetaStats[mc.ID]
	st.Cycles += cost
	st.BodyCycles += cost
	st.LivePECycles += cost * m.live
	st.EnabledPECycles += cost * en
	if m.prof != nil {
		m.prof.Add(mc.ID, s.Block, s.Pos, cost)
	}
}

// census returns how many PEs a guard enables: the sum of its members'
// occupancy counts. Every live PE occupies exactly one MIMD state, so
// the members' masks are disjoint and no popcount is needed.
func (m *vm) census(members []int32) int64 {
	en := int64(0)
	for _, s := range members {
		en += m.occCnt[s]
	}
	return en
}

// enable returns the enable mask of a guard's members (or of one depth
// group of them), valid over mask words [w0, w1): nil when no member is
// occupied, the occupancy mask of its one occupied member itself, or
// the OR of several written into m.enab. Chunks own disjoint words and
// run their slots and groups in order, so m.enab serves every chunk,
// slot and group of a pass. Slots never mutate occupancy; only
// commit does.
func (m *vm) enable(members []int32, w0, w1 int) bitset.Mask {
	var e bitset.Mask
	occupied := 0
	for _, s := range members {
		if m.occCnt[s] == 0 {
			continue
		}
		switch occupied++; occupied {
		case 1:
			e = m.occ[s]
		case 2:
			m.enab[w0:w1].CopyFrom(e[w0:w1])
			e = m.enab
			fallthrough
		default:
			e[w0:w1].OrWith(m.occ[s][w0:w1])
		}
	}
	return e
}

// fullWord is a mask word that enables all 64 of its PEs.
const fullWord = ^uint64(0)

// execLocal runs one chunk-local slot on chunk c's enabled PEs. Chunks
// are word-aligned, so dirty and npc words are never shared. A slot
// that reads the evaluation stack runs once per depth group of its
// guard, each group at its own fixed rows. JumpF, SetPC, End and Halt
// write a full mask word's 64 npcs in one straight loop (see
// execInstr); RetBr pops each PE's own return stack and keeps its bit
// loop.
func (m *vm) execLocal(s *Slot, r slotRef, c int) error {
	w0, w1 := m.chunkWords(c)
	switch s.Kind {
	case SlotExec:
		return m.execGroups(s.Instr, r, c)
	case SlotJumpF:
		ch := &m.chunks[c]
		to, fto, npcs := int32(s.To), int32(s.FTo), m.npcs
		for _, g := range m.lay.groups(r) {
			e := m.enable(m.lay.mem[g.lo:g.hi], w0, w1)
			if e == nil {
				continue
			}
			cond := ch.row(int(g.d) - 1)
			for w := w0; w < w1; w++ {
				ew := e[w]
				if ew == 0 {
					continue
				}
				m.dirty[w] |= ew
				base := w << 6
				if ew == fullWord {
					row := npcs[base : base+64]
					for i, v := range cond[base-ch.p0 : base-ch.p0+64] {
						t := fto
						if ir.Truth(v) {
							t = to
						}
						row[i] = t
					}
					continue
				}
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					if ir.Truth(cond[pe-ch.p0]) {
						npcs[pe] = to
					} else {
						npcs[pe] = fto
					}
				}
			}
		}
		return nil
	}
	e := m.enable(m.lay.members(r), w0, w1)
	ch := &m.chunks[c]
	p0, wd := ch.p0, ch.wd
	rlens, npcs := m.rlens, m.npcs
	switch s.Kind {
	case SlotSetPC, SlotEnd, SlotHalt:
		to, halt := int32(s.To), s.Kind == SlotHalt
		switch s.Kind {
		case SlotEnd:
			to = PCDone
		case SlotHalt:
			to = PCIdle
		}
		for w := w0; w < w1; w++ {
			ew := e[w]
			if ew == 0 {
				continue
			}
			m.dirty[w] |= ew
			base := w << 6
			if ew == fullWord {
				row := npcs[base : base+64]
				for i := range row {
					row[i] = to
				}
				if halt {
					clear(rlens[base : base+64])
				}
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				npcs[pe] = to
				if halt {
					rlens[pe] = 0
				}
			}
		}
	case SlotRetBr:
		ret := ch.ret
		for w := w0; w < w1; w++ {
			ew := e[w]
			if ew == 0 {
				continue
			}
			m.dirty[w] |= ew
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := rlens[pe] - 1
				if l < 0 {
					return fmt.Errorf("PE %d return with empty return stack", pe)
				}
				rlens[pe] = l
				if l < retRows {
					npcs[pe] = ret[int(l)*wd+pe-p0]
				} else {
					npcs[pe] = ch.retDeep[pe-p0][l-retRows]
				}
			}
		}
	}
	return nil
}

// pushRetDeep pushes return site r at depth l >= retRows onto the
// private spill of the chunk's i-th PE. Reslicing to l-retRows drops
// entries a halt abandoned.
func (ch *chunk) pushRetDeep(i int, l, r int32) {
	if ch.retDeep == nil {
		ch.retDeep = make([][]int32, ch.wd)
	}
	ch.retDeep[i] = append(ch.retDeep[i][:l-retRows], r)
}

// execCross executes a cross-chunk slot. Spawn claims free PEs in
// ascending order across the whole machine, so the coordinator runs it
// alone. The others keep the order sequential ascending-PE execution
// gives their cross-chunk effects: the highest enabled PE wins a
// StMono, and StRemote writes replay in ascending PE order.
func (m *vm) execCross(s *Slot, r slotRef) error {
	if s.Kind == SlotSpawn {
		return m.spawn(s, m.enable(m.lay.members(r), 0, m.nw))
	}
	a, err := m.slotAddr(s.Instr.Imm)
	if err != nil {
		return err
	}
	switch s.Instr.Op {
	case ir.StMono:
		return m.stMono(a, r)
	case ir.StRemote:
		return m.stRemote(a, r)
	}
	return m.ldRemote(a, r)
}

// spawn sets each enabled parent's next pc to s.To and claims one free
// PE per parent, in ascending parent order, whose next pc becomes
// s.ChildTo. The free cursor makes each claim O(words) worst case and
// O(1) amortized (see claimFree).
func (m *vm) spawn(s *Slot, e bitset.Mask) error {
	to, childTo := int32(s.To), int32(s.ChildTo)
	for w := 0; w < m.nw; w++ {
		ew := e[w]
		base := w << 6
		for ew != 0 {
			b := bits.TrailingZeros64(ew)
			ew &= ew - 1
			parent := base + b
			child := m.claimFree()
			if child < 0 {
				return fmt.Errorf("spawn with no free processor (width %d)", m.n)
			}
			m.npcs[child] = childTo
			m.dirty.Set(child)
			m.npcs[parent] = to
			m.dirty.Set(parent)
		}
	}
	return nil
}

// claimFree returns the lowest free PE (committed idle, not yet claimed
// or retargeted this body) and marks nothing — the caller writes its
// npc and dirty bit, which removes it from the free set. The cursor
// invariant is that no word below freeHint holds a free bit; commit
// lowers the cursor when a halt parks a PE below it.
func (m *vm) claimFree() int {
	for w := m.freeHint; w < m.nw; w++ {
		if f := m.idle[w] &^ m.dirty[w]; f != 0 {
			m.freeHint = w
			return w<<6 + bits.TrailingZeros64(f)
		}
	}
	m.freeHint = m.nw
	return -1
}

// commit applies the body's latched pc updates. commitChunk moves
// every dirty PE's occ/idle/done mask bits from its old pc to its new
// one, chunk-local (words are not shared between chunks), with
// occupancy-count and live-count deltas accumulated per worker; commit
// then reduces those deltas on the coordinator — they commute, so
// worker interleaving cannot affect the result.
func (m *vm) commit() {
	for _, ws := range m.wss {
		if ws.cntTouched {
			for s, d := range ws.cntDelta {
				if d != 0 {
					m.occCnt[s] += d
					ws.cntDelta[s] = 0
				}
			}
			ws.cntTouched = false
		}
		m.live += ws.liveDelta
		ws.liveDelta = 0
		if ws.minIdleW < m.freeHint {
			m.freeHint = ws.minIdleW
		}
		ws.minIdleW = int(^uint(0) >> 1)
	}
}

// commitPairs bounds how many (old pc, new pc) pairs commitChunk
// gathers before it moves them.
const commitPairs = 4

// commitChunk moves chunk c's dirty PEs from their old pc to their new
// one. It gathers a word's dirty PEs into one mask per (old, new) pair,
// so the word makes one mask move per pair however its PEs interleave
// — a JumpF that alternates its outcome between neighbours makes two.
// A fifth pair first moves the commitPairs gathered masks and starts
// over, which bounds the per-PE search at commitPairs compares. A run
// of neighbours that share a pair never spans such a flush, so a word
// makes no more moves than it has runs. The moves are disjoint, so
// their order does not matter.
func (m *vm) commitChunk(ws *wscratch, c int) error {
	w0, w1 := m.chunkWords(c)
	pcs, npcs := m.pcs, m.npcs
	var keys, masks [commitPairs]uint64
	for w := w0; w < w1; w++ {
		dw := m.dirty[w]
		if dw == 0 {
			continue
		}
		m.dirty[w] = 0
		base := w << 6
		np := 0
		for ; dw != 0; dw &= dw - 1 {
			b := bits.TrailingZeros64(dw)
			pe := base + b
			nv := npcs[pe]
			k := uint64(uint32(pcs[pe]))<<32 | uint64(uint32(nv))
			pcs[pe] = nv
			j := 0
			for j < np && keys[j] != k {
				j++
			}
			if j == np {
				if np == commitPairs {
					m.movePairs(ws, w, keys[:np], masks[:np])
					j, np = 0, 0
				}
				keys[j], masks[j] = k, 0
				np++
			}
			masks[j] |= 1 << b
		}
		m.movePairs(ws, w, keys[:np], masks[:np])
	}
	return nil
}

// movePairs moves the PEs of mask word w gathered under each (old pc,
// new pc) key from old to new: their occupancy, idle and done bits, and
// the worker's count deltas.
func (m *vm) movePairs(ws *wscratch, w int, keys, masks []uint64) {
	for j, key := range keys {
		old, nv, run := int32(key>>32), int32(key), masks[j]
		if old == nv {
			continue
		}
		k := int64(bits.OnesCount64(run))
		switch {
		case old >= 0:
			m.occ[old][w] &^= run
			ws.cntDelta[old] -= k
			ws.cntTouched = true
			ws.liveDelta -= k
		case old == PCIdle:
			m.idle[w] &^= run
		}
		switch {
		case nv >= 0:
			m.occ[nv][w] |= run
			ws.cntDelta[nv] += k
			ws.cntTouched = true
			ws.liveDelta += k
		case nv == PCIdle:
			m.idle[w] |= run
			if w < ws.minIdleW {
				ws.minIdleW = w
			}
		default: // PCDone
			m.doneM[w] |= run
		}
	}
}

func (m *vm) slotAddr(addr int64) (int, error) {
	if addr < 0 || addr >= int64(m.wpp) {
		return 0, fmt.Errorf("memory address %d out of range [0,%d)", addr, m.wpp)
	}
	return int(addr), nil
}

// peError is a failure at one PE of a slot. A slot whose members reach
// it at several depths runs once per depth group, so the failure
// sequential ascending-PE execution reaches first is the one at the
// lowest PE of any group (execGroups).
type peError struct {
	pe  int
	err error
}

func (e *peError) Error() string { return e.err.Error() }
func (e *peError) Unwrap() error { return e.err }

// execGroups runs an exec slot on chunk c, once per depth group of its
// guard, and returns the failure at the lowest PE. A static error (an
// address out of range, an unknown opcode) comes before any PE runs,
// alike in every group.
func (m *vm) execGroups(in ir.Instr, r slotRef, c int) error {
	w0, w1 := m.chunkWords(c)
	var first *peError
	for _, g := range m.lay.groups(r) {
		e := m.enable(m.lay.mem[g.lo:g.hi], w0, w1)
		if e == nil {
			continue
		}
		err := m.execInstr(in, int(g.d), e, c)
		if err == nil {
			continue
		}
		pe, ok := err.(*peError)
		if !ok {
			return err
		}
		if first == nil || pe.pe < first.pe {
			first = pe
		}
	}
	if first != nil {
		return first
	}
	return nil
}

// row returns row d of the chunk's evaluation stacks: depth d of every
// PE of the chunk, PE pe at index pe-p0.
func (ch *chunk) row(d int) []ir.Word { return ch.stk[d*ch.wd:][:ch.wd] }

// execInstr runs one chunk-local instruction on chunk c's PEs enabled
// in e, ascending, every one of which reaches it at stack depth d (see
// layout): a push writes row d, a pop reads row d-1 and a binary op
// combines rows d-2 and d-1 in place. Run validated the program before
// it allocated, so every row a slot addresses exists and no PE's depth
// is loaded, tested or stored.
//
// Every case carries its own bit loop over a word's enabled PEs. The
// cases that touch only the PE's own row entries or memory word also
// carry a second path, for a mask word that enables all 64 PEs: a
// straight loop over the word's 64 contiguous row entries, with no bit
// extraction, and for a binary op one ir.EvalBinaryRow call, one opcode
// switch per word. This is the hottest code in the repo; measure
// before restructuring. A static error (an address out of range, an
// unknown opcode) is returned before any PE runs, by every chunk
// alike, so execRun reports it at its slot just as slot-by-slot
// execution does.
func (m *vm) execInstr(in ir.Instr, d int, e bitset.Mask, c int) error {
	ch := &m.chunks[c]
	w0, w1 := m.chunkWords(c)
	p0 := ch.p0
	mem, wpp := m.mem, m.wpp
	switch in.Op {
	case ir.Nop, ir.Pop:
	case ir.PushC, ir.NProc:
		v := ir.Word(in.Imm)
		if in.Op == ir.NProc {
			v = ir.Word(m.n)
		}
		dst := ch.row(d)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w<<6 - p0
			if ew == fullWord {
				row := dst[base : base+64]
				for i := range row {
					row[i] = v
				}
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				dst[base+b] = v
			}
		}
	case ir.IProc:
		dst := ch.row(d)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			if ew == fullWord {
				row := dst[base-p0 : base-p0+64]
				for i := range row {
					row[i] = ir.Word(base + i)
				}
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				dst[pe-p0] = ir.Word(pe)
			}
		}
	case ir.Dup:
		src, dst := ch.row(d-1), ch.row(d)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w<<6 - p0
			if ew == fullWord {
				copy(dst[base:base+64], src[base:base+64])
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				dst[base+b] = src[base+b]
			}
		}
	case ir.LdLocal, ir.LdMono:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		dst := ch.row(d)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			if ew == fullWord {
				row, j := dst[base-p0:base-p0+64], base*wpp+a
				for i := range row {
					row[i] = mem[j]
					j += wpp
				}
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				dst[pe-p0] = mem[pe*wpp+a]
			}
		}
	case ir.StLocal:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		src := ch.row(d - 1)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			if ew == fullWord {
				row, j := src[base-p0:base-p0+64], base*wpp+a
				for _, v := range row {
					mem[j] = v
					j += wpp
				}
				continue
			}
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				mem[pe*wpp+a] = src[pe-p0]
			}
		}
	case ir.LdIndex:
		x := ch.row(d - 1) // in place: pop idx, push val
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				a, err := m.slotAddr(in.Imm + int64(x[pe-p0]))
				if err != nil {
					return &peError{pe, err}
				}
				x[pe-p0] = mem[pe*wpp+a]
			}
		}
	case ir.StIndex:
		idx, val := ch.row(d-2), ch.row(d-1)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				a, err := m.slotAddr(in.Imm + int64(idx[pe-p0]))
				if err != nil {
					return &peError{pe, err}
				}
				mem[pe*wpp+a] = val[pe-p0]
			}
		}
	case ir.PushRet:
		r, ret, rlens, wd := int32(in.Imm), ch.ret, m.rlens, ch.wd
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := rlens[pe]
				if l < retRows {
					ret[int(l)*wd+pe-p0] = r
				} else {
					ch.pushRetDeep(pe-p0, l, r)
				}
				rlens[pe] = l + 1
			}
		}
	default:
		op := in.Op
		switch {
		case ir.IsBinary(op):
			x, y := ch.row(d-2), ch.row(d-1)
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w<<6 - p0
				if ew == fullWord {
					ir.EvalBinaryRow(op, x[base:base+64], y[base:base+64])
					continue
				}
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					i := base + b
					x[i] = ir.EvalBinary(op, x[i], y[i])
				}
			}
		case ir.IsUnary(op):
			x := ch.row(d - 1)
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w<<6 - p0
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					i := base + b
					x[i] = ir.EvalUnary(op, x[i])
				}
			}
		default:
			return fmt.Errorf("unknown opcode %v", in.Op)
		}
	}
	return nil
}

// stMono broadcasts the value the highest enabled PE pops, as
// sequential ascending-PE execution leaves it, to every PE's memory
// row chunk-parallel. A pop does no per-PE work, so only that PE's
// stack is read: the highest occupied PE of any member, at its group's
// depth.
func (m *vm) stMono(a int, r slotRef) error {
	top, val := -1, ir.Word(0)
	for _, g := range m.lay.groups(r) {
		for _, s := range m.lay.mem[g.lo:g.hi] {
			if m.occCnt[s] == 0 {
				continue
			}
			if pe := lastSet(m.occ[s]); pe > top {
				ch := &m.chunks[pe/chunkPEs]
				top, val = pe, ch.row(int(g.d) - 1)[pe-ch.p0]
			}
		}
	}
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		for pe := ch.p0; pe < ch.p0+ch.wd; pe++ {
			m.mem[pe*m.wpp+a] = val
		}
		return nil
	})
	return err
}

// lastSet returns the index of the highest set bit, or -1.
func lastSet(m bitset.Mask) int {
	for w := len(m) - 1; w >= 0; w-- {
		if x := m[w]; x != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(x)
		}
	}
	return -1
}

// stRemote pops (target, value) on every enabled PE chunk-parallel,
// buffering the router writes per chunk, then replays them in chunk
// order on the coordinator — ascending-PE write order, so conflicting
// stores resolve exactly as in sequential execution. A chunk buffers
// one depth group after another, so a slot with several groups sorts
// its buffer by PE.
func (m *vm) stRemote(a int, r slotRef) error {
	groups := m.lay.groups(r)
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		w0, w1 := m.chunkWords(c)
		buf := ch.rem[:0]
		for _, g := range groups {
			e := m.enable(m.lay.mem[g.lo:g.hi], w0, w1)
			if e == nil {
				continue
			}
			tgt, val := ch.row(int(g.d)-2), ch.row(int(g.d)-1)
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					buf = append(buf, remWrite{pe: pe, idx: ir.PEIndex(tgt[pe-ch.p0], m.n)*m.wpp + a, val: val[pe-ch.p0]})
				}
			}
		}
		if len(groups) > 1 {
			slices.SortFunc(buf, func(x, y remWrite) int { return cmp.Compare(x.pe, y.pe) })
		}
		ch.rem = buf
		return nil
	})
	if err != nil {
		return err
	}
	for c := range m.chunks {
		ch := &m.chunks[c]
		for _, rw := range ch.rem {
			m.mem[rw.idx] = rw.val
		}
		ch.rem = ch.rem[:0]
	}
	return nil
}

// ldRemote replaces each enabled PE's stack top, a PE number, with that
// PE's word a. Router reads are simultaneous, and no PE's memory
// changes during this slot, so replacing the target with the fetched
// value in place, one depth group after another, is equivalent to the
// reference's gather-then-push.
func (m *vm) ldRemote(a int, r slotRef) error {
	groups := m.lay.groups(r)
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		w0, w1 := m.chunkWords(c)
		for _, g := range groups {
			e := m.enable(m.lay.mem[g.lo:g.hi], w0, w1)
			if e == nil {
				continue
			}
			x := ch.row(int(g.d) - 1)
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					x[pe-ch.p0] = m.mem[ir.PEIndex(x[pe-ch.p0], m.n)*m.wpp+a]
				}
			}
		}
		return nil
	})
	return err
}
