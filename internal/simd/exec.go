package simd

import (
	"fmt"
	"math/bits"

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
	members := m.gm[mc.ID]
	final := j == len(mc.Slots)
	enabled := false
	for si := i; si < j; si++ {
		m.ens[si] = m.census(members[si])
		enabled = enabled || m.ens[si] > 0
	}
	last, err := j-1, error(nil)
	switch s := &mc.Slots[i]; {
	case crossChunk(s):
		if enabled {
			err = m.execCross(s, m.enable(members[i], 0, m.nw))
		}
	case enabled || final:
		var slot int
		slot, err = m.forChunks(func(ws *wscratch, c int) error {
			w0, w1 := m.chunkWords(c)
			for si := i; si < j; si++ {
				if m.ens[si] == 0 {
					continue
				}
				if err := m.execLocal(&mc.Slots[si], m.enable(members[si], w0, w1), c); err != nil {
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
func (m *vm) census(members []int) int64 {
	en := int64(0)
	for _, s := range members {
		en += m.occCnt[s]
	}
	return en
}

// enable returns a guard's enable mask, valid over mask words [w0, w1):
// the occupancy mask of its one occupied member itself, or the OR of
// several written into m.enab. Chunks own disjoint words and run their
// slots in order, so one scratch mask serves every chunk and slot of a
// pass. Slots never mutate occupancy; only commit does.
func (m *vm) enable(members []int, w0, w1 int) bitset.Mask {
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

// execLocal runs one chunk-local slot on chunk c's PEs enabled in e.
// Chunks are word-aligned, so dirty and npc words are never shared.
func (m *vm) execLocal(s *Slot, e bitset.Mask, c int) error {
	if s.Kind == SlotExec {
		return m.execInstr(s.Instr, e, c)
	}
	ch := &m.chunks[c]
	w0, w1 := m.chunkWords(c)
	p0, wd := ch.p0, ch.wd
	slens, rlens, npcs := m.slens, m.rlens, m.npcs
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
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				npcs[pe] = to
				if halt {
					slens[pe], rlens[pe] = 0, 0
				}
			}
		}
	case SlotJumpF:
		to, fto, stk := int32(s.To), int32(s.FTo), ch.stk
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
				l := slens[pe] - 1
				if l < 0 {
					return underflow(pe)
				}
				slens[pe] = l
				if ir.Truth(stk[int(l)*wd+pe-p0]) {
					npcs[pe] = to
				} else {
					npcs[pe] = fto
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

// execCross executes a cross-chunk slot over its enable mask e. Spawn
// claims free PEs in ascending order across the whole machine, so the
// coordinator runs it alone. The others pop chunk-parallel and buffer
// their cross-chunk effects per chunk, replayed in chunk order, so the
// outcome matches sequential ascending-PE execution exactly.
func (m *vm) execCross(s *Slot, e bitset.Mask) error {
	if s.Kind == SlotSpawn {
		return m.spawn(s, e)
	}
	a, err := m.slotAddr(s.Instr.Imm)
	if err != nil {
		return err
	}
	switch s.Instr.Op {
	case ir.StMono:
		return m.stMono(a, e)
	case ir.StRemote:
		return m.stRemote(a, e)
	}
	return m.ldRemote(a, e)
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

func (m *vm) commitChunk(ws *wscratch, c int) error {
	w0, w1 := m.chunkWords(c)
	for w := w0; w < w1; w++ {
		dw := m.dirty[w]
		if dw == 0 {
			continue
		}
		m.dirty[w] = 0
		base := w << 6
		for dw != 0 {
			b := bits.TrailingZeros64(dw)
			dw &= dw - 1
			pe := base + b
			old, nv := int(m.pcs[pe]), int(m.npcs[pe])
			if old == nv {
				continue
			}
			bit := uint64(1) << uint(b)
			switch {
			case old >= 0:
				m.occ[old][w] &^= bit
				ws.cntDelta[old]--
				ws.cntTouched = true
				ws.liveDelta--
			case old == PCIdle:
				m.idle[w] &^= bit
			}
			switch {
			case nv >= 0:
				m.occ[nv][w] |= bit
				ws.cntDelta[nv]++
				ws.cntTouched = true
				ws.liveDelta++
			case nv == PCIdle:
				m.idle[w] |= bit
				if w < ws.minIdleW {
					ws.minIdleW = w
				}
			default: // PCDone
				m.doneM[w] |= bit
			}
			m.pcs[pe] = int32(nv)
		}
	}
	return nil
}

// grow doubles a chunk's evaluation-stack slab. Rows are depth-major,
// so the old slab is the new one's prefix and every entry keeps its
// index.
func grow(s []ir.Word) []ir.Word {
	ns := make([]ir.Word, 2*len(s))
	copy(ns, s)
	return ns
}

func (m *vm) slotAddr(addr int64) (int, error) {
	if addr < 0 || addr >= int64(m.wpp) {
		return 0, fmt.Errorf("memory address %d out of range [0,%d)", addr, m.wpp)
	}
	return int(addr), nil
}

func underflow(pe int) error {
	return fmt.Errorf("PE %d evaluation stack underflow", pe)
}

// execInstr runs one chunk-local instruction on chunk c's PEs enabled
// in e, ascending. PE pe's stack entry at depth d is
// stk[d*wd+pe-p0]: one row per depth, so PEs at a common depth touch
// consecutive words.
//
// Every case carries its own bit loop with the stack manipulation
// fused: a binary op is one depth load, an in-place store over the
// second operand, and one depth store — no push/pop calls. This is the
// hottest code in the repo; measure before restructuring. Underflow
// checks collapse to one front check per PE, which reports the same
// error sequential pop-by-pop execution would. A static error (an
// address out of range, an unknown opcode) is returned before any PE
// runs, by every chunk alike, so execRun reports it at its slot just as
// slot-by-slot execution does.
func (m *vm) execInstr(in ir.Instr, e bitset.Mask, c int) error {
	ch := &m.chunks[c]
	w0, w1 := m.chunkWords(c)
	p0, wd, stk := ch.p0, ch.wd, ch.stk
	slens, mem, wpp := m.slens, m.mem, m.wpp
	switch in.Op {
	case ir.Nop:
	case ir.PushC, ir.NProc:
		v := ir.Word(in.Imm)
		if in.Op == ir.NProc {
			v = ir.Word(m.n)
		}
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				i := int(l)*wd + pe - p0
				if i >= len(stk) {
					stk = grow(stk)
					ch.stk = stk
				}
				stk[i] = v
				slens[pe] = l + 1
			}
		}
	case ir.IProc:
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				i := int(l)*wd + pe - p0
				if i >= len(stk) {
					stk = grow(stk)
					ch.stk = stk
				}
				stk[i] = ir.Word(pe)
				slens[pe] = l + 1
			}
		}
	case ir.Dup:
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				if l == 0 {
					return underflow(pe)
				}
				i := int(l)*wd + pe - p0
				if i >= len(stk) {
					stk = grow(stk)
					ch.stk = stk
				}
				stk[i] = stk[i-wd]
				slens[pe] = l + 1
			}
		}
	case ir.Pop:
		// Like the reference, which pops Imm times: none for a
		// negative count, and an underflow for any count past the
		// depth, however large.
		k := max(in.Imm, 0)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				if int64(l) < k {
					return underflow(pe)
				}
				slens[pe] = l - int32(k)
			}
		}
	case ir.LdLocal, ir.LdMono:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				i := int(l)*wd + pe - p0
				if i >= len(stk) {
					stk = grow(stk)
					ch.stk = stk
				}
				stk[i] = mem[pe*wpp+a]
				slens[pe] = l + 1
			}
		}
	case ir.StLocal:
		a, err := m.slotAddr(in.Imm)
		if err != nil {
			return err
		}
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe] - 1
				if l < 0 {
					return underflow(pe)
				}
				mem[pe*wpp+a] = stk[int(l)*wd+pe-p0]
				slens[pe] = l
			}
		}
	case ir.LdIndex:
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				if l == 0 {
					return underflow(pe)
				}
				i := int(l-1)*wd + pe - p0
				a, err := m.slotAddr(in.Imm + int64(stk[i]))
				if err != nil {
					return err
				}
				stk[i] = mem[pe*wpp+a] // in place: pop idx, push val
			}
		}
	case ir.StIndex:
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := slens[pe]
				if l < 2 {
					return underflow(pe)
				}
				i := int(l-1)*wd + pe - p0
				a, err := m.slotAddr(in.Imm + int64(stk[i-wd]))
				if err != nil {
					return err
				}
				mem[pe*wpp+a] = stk[i]
				slens[pe] = l - 2
			}
		}
	case ir.PushRet:
		r, ret, rlens := int32(in.Imm), ch.ret, m.rlens
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
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := slens[pe]
					if l < 2 {
						return underflow(pe)
					}
					i := int(l-1)*wd + pe - p0
					stk[i-wd] = ir.EvalBinary(op, stk[i-wd], stk[i])
					slens[pe] = l - 1
				}
			}
		case ir.IsUnary(op):
			for w := w0; w < w1; w++ {
				ew := e[w]
				base := w << 6
				for ew != 0 {
					b := bits.TrailingZeros64(ew)
					ew &= ew - 1
					pe := base + b
					l := slens[pe]
					if l == 0 {
						return underflow(pe)
					}
					i := int(l-1)*wd + pe - p0
					stk[i] = ir.EvalUnary(op, stk[i])
				}
			}
		default:
			return fmt.Errorf("unknown opcode %v", in.Op)
		}
	}
	return nil
}

// stMono pops on every enabled PE (chunk-parallel, recording each
// chunk's last popped value), reduces chunk-ascending so the highest
// enabled PE's value wins exactly as in sequential execution, then
// broadcasts it to every PE's memory row chunk-parallel.
func (m *vm) stMono(a int, e bitset.Mask) error {
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		w0, w1 := m.chunkWords(c)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := m.slens[pe] - 1
				if l < 0 {
					return underflow(pe)
				}
				ch.monoVal = ch.stk[int(l)*ch.wd+pe-ch.p0]
				ch.monoAny = true
				m.slens[pe] = l
			}
		}
		return nil
	})
	var val ir.Word
	for c := range m.chunks {
		if ch := &m.chunks[c]; ch.monoAny {
			val = ch.monoVal // highest chunk with an enabled PE wins
			ch.monoAny = false
		}
	}
	if err != nil {
		return err
	}
	_, err = m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		for pe := ch.p0; pe < ch.p0+ch.wd; pe++ {
			m.mem[pe*m.wpp+a] = val
		}
		return nil
	})
	return err
}

// stRemote pops (value, target) on every enabled PE chunk-parallel,
// buffering the router writes per chunk, then replays them in chunk
// order on the coordinator — ascending-PE write order, so conflicting
// stores resolve exactly as in sequential execution.
func (m *vm) stRemote(a int, e bitset.Mask) error {
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		buf := ch.rem[:0]
		defer func() { ch.rem = buf }()
		w0, w1 := m.chunkWords(c)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := m.slens[pe]
				if l < 2 {
					return underflow(pe)
				}
				i := int(l-1)*ch.wd + pe - ch.p0
				m.slens[pe] = l - 2
				buf = append(buf, remWrite{idx: peIndex(ch.stk[i-ch.wd], m.n)*m.wpp + a, val: ch.stk[i]})
			}
		}
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
// value in place is equivalent to the reference's gather-then-push.
func (m *vm) ldRemote(a int, e bitset.Mask) error {
	_, err := m.forChunks(func(_ *wscratch, c int) error {
		ch := &m.chunks[c]
		w0, w1 := m.chunkWords(c)
		for w := w0; w < w1; w++ {
			ew := e[w]
			base := w << 6
			for ew != 0 {
				b := bits.TrailingZeros64(ew)
				ew &= ew - 1
				pe := base + b
				l := m.slens[pe]
				if l == 0 {
					return underflow(pe)
				}
				i := int(l-1)*ch.wd + pe - ch.p0
				ch.stk[i] = m.mem[peIndex(ch.stk[i], m.n)*m.wpp+a]
			}
		}
		return nil
	})
	return err
}
