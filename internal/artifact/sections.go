package artifact

// Section payload codecs for the three deterministic sections. Each
// decoder assumes checksum-verified input but still bounds-checks every
// read and validates cross-references (successor IDs, block indices) so
// a codec bug surfaces as a *CorruptError, never an index panic in the
// engines.

import (
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/ir"
	metastate "msc/internal/msc"
	"msc/internal/simd"
)

// ---- graph -----------------------------------------------------------

func encodeGraph(g *cfg.Graph) []byte {
	w := &writer{}
	w.intv(g.Entry)
	w.intv(g.MonoSlots)
	w.intv(g.Words)
	w.slotMap(g.RetSlot)
	w.slotMap(g.VarSlot)
	w.uvarint(uint64(len(g.Blocks)))
	for _, b := range g.Blocks {
		if b == nil {
			w.boolval(false)
			continue
		}
		w.boolval(true)
		w.intv(b.ID)
		w.uvarint(uint64(len(b.Code)))
		for _, in := range b.Code {
			w.instr(in)
		}
		w.byteval(byte(b.Term))
		w.intv(b.Next)
		w.intv(b.FNext)
		w.ints(b.RetTargets)
		w.intv(b.SpawnNext)
		w.boolval(b.Barrier)
		w.str(b.Label)
		w.pos(b.Pos)
	}
	return w.buf
}

func decodeGraph(data []byte) (*cfg.Graph, error) {
	r := &reader{data: data}
	g := &cfg.Graph{
		Entry:     r.intv(),
		MonoSlots: r.intv(),
		Words:     r.intv(),
		RetSlot:   r.slotMap(),
		VarSlot:   r.slotMap(),
	}
	n := r.uvarint()
	if r.err != nil || n > uint64(r.rem())+1 {
		return nil, corrupt("graph: bad block count")
	}
	g.Blocks = make([]*cfg.Block, n)
	for i := range g.Blocks {
		if !r.boolval() {
			continue
		}
		b := &cfg.Block{ID: r.intv()}
		nc := r.uvarint()
		if nc > uint64(r.rem()) {
			return nil, corrupt("graph: bad code length in block %d", i)
		}
		if nc > 0 {
			b.Code = make([]ir.Instr, nc)
			for j := range b.Code {
				b.Code[j] = r.instr()
			}
		}
		b.Term = cfg.TermKind(r.byteval())
		b.Next = r.intv()
		b.FNext = r.intv()
		b.RetTargets = r.ints()
		b.SpawnNext = r.intv()
		b.Barrier = r.boolval()
		b.Label = r.str()
		b.Pos = r.pos()
		g.Blocks[i] = b
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.rem() != 0 {
		return nil, corrupt("graph: %d trailing bytes", r.rem())
	}
	if g.Entry < 0 || g.Entry >= len(g.Blocks) || g.Blocks[g.Entry] == nil {
		return nil, corrupt("graph: entry %d out of range", g.Entry)
	}
	for i, b := range g.Blocks {
		if b == nil {
			continue
		}
		if b.ID != i {
			return nil, corrupt("graph: block %d carries ID %d", i, b.ID)
		}
		for _, s := range b.Succs() {
			if s < 0 || s >= len(g.Blocks) || g.Blocks[s] == nil {
				return nil, corrupt("graph: block %d successor %d out of range", i, s)
			}
		}
	}
	return g, nil
}

func (w *writer) instr(in ir.Instr) {
	w.byteval(byte(in.Op))
	w.varint(in.Imm)
	w.byteval(byte(in.Ty))
	w.str(in.Sym)
	w.pos(in.Pos)
}

func (r *reader) instr() ir.Instr {
	return ir.Instr{
		Op:  ir.Op(r.byteval()),
		Imm: r.varint(),
		Ty:  ir.Type(r.byteval()),
		Sym: r.str(),
		Pos: r.pos(),
	}
}

// ---- automaton -------------------------------------------------------

// encodeAutomaton serializes the automaton. Its graph is usually the
// compiled graph (secGraph); when time splitting replaced it, the split
// copy is inlined here so the decoded automaton keeps its own graph
// exactly as conversion left it.
func encodeAutomaton(a *metastate.Automaton, compiledGraph *cfg.Graph) []byte {
	w := &writer{}
	shared := a.G == compiledGraph
	w.boolval(shared)
	if !shared {
		inner := encodeGraph(a.G)
		w.uvarint(uint64(len(inner)))
		w.buf = append(w.buf, inner...)
	}
	w.intv(a.Start)
	w.set(a.Barriers)
	w.boolval(a.Opt.Compress)
	w.boolval(a.Opt.MergeSubsets)
	w.boolval(a.Opt.TimeSplit)
	w.intv(a.Opt.SplitDelta)
	w.intv(a.Opt.SplitPercent)
	w.boolval(a.Opt.BarrierExact)
	w.intv(a.Opt.MaxStates)
	w.intv(a.Opt.MaxRestarts)
	w.intv(a.Opt.MaxRetSubsets)
	w.varint(a.Opt.MaxMemBytes)
	w.intv(a.Splits)
	w.intv(a.Restarts)
	w.boolval(a.OverApprox)
	w.uvarint(uint64(len(a.States)))
	for _, s := range a.States {
		w.set(s.Set)
		w.ints(s.Trans)
		w.boolval(s.Exit)
	}
	return w.buf
}

func decodeAutomaton(data []byte, compiledGraph *cfg.Graph) (*metastate.Automaton, error) {
	r := &reader{data: data}
	a := &metastate.Automaton{G: compiledGraph}
	if !r.boolval() {
		n := r.uvarint()
		if n > uint64(r.rem()) {
			return nil, corrupt("automaton: bad inline graph length")
		}
		g, err := decodeGraph(r.bytes(int(n)))
		if err != nil {
			return nil, err
		}
		a.G = g
	}
	a.Start = r.intv()
	a.Barriers = r.set()
	a.Opt.Compress = r.boolval()
	a.Opt.MergeSubsets = r.boolval()
	a.Opt.TimeSplit = r.boolval()
	a.Opt.SplitDelta = r.intv()
	a.Opt.SplitPercent = r.intv()
	a.Opt.BarrierExact = r.boolval()
	a.Opt.MaxStates = r.intv()
	a.Opt.MaxRestarts = r.intv()
	a.Opt.MaxRetSubsets = r.intv()
	a.Opt.MaxMemBytes = r.varint()
	a.Splits = r.intv()
	a.Restarts = r.intv()
	a.OverApprox = r.boolval()
	n := r.uvarint()
	if r.err != nil || n > uint64(r.rem())+1 {
		return nil, corrupt("automaton: bad state count")
	}
	a.States = make([]*metastate.MetaState, n)
	for i := range a.States {
		a.States[i] = &metastate.MetaState{
			ID:    i,
			Set:   r.set(),
			Trans: r.ints(),
			Exit:  r.boolval(),
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.rem() != 0 {
		return nil, corrupt("automaton: %d trailing bytes", r.rem())
	}
	if a.Start < 0 || a.Start >= len(a.States) {
		return nil, corrupt("automaton: start %d out of range", a.Start)
	}
	if a.Barriers == nil {
		return nil, corrupt("automaton: missing barrier set")
	}
	for i, s := range a.States {
		if s.Set == nil {
			return nil, corrupt("automaton: state %d missing set", i)
		}
		for _, to := range s.Trans {
			if to < 0 || to >= len(a.States) {
				return nil, corrupt("automaton: state %d transition %d out of range", i, to)
			}
		}
	}
	if err := a.Reindex(); err != nil {
		return nil, corrupt("automaton: %v", err)
	}
	return a, nil
}

// ---- program ---------------------------------------------------------

func encodeProgram(p *simd.Program) []byte {
	w := &writer{}
	w.intv(p.Start)
	w.intv(p.Words)
	w.intv(p.NStates)
	w.set(p.Barriers)
	w.boolval(p.SupersetDispatch)
	w.slotMap(p.VarSlot)
	w.slotMap(p.RetSlot)
	w.uvarint(uint64(len(p.Meta)))
	for _, m := range p.Meta {
		w.intv(m.ID)
		w.set(m.Set)
		w.uvarint(uint64(len(m.Slots)))
		for i := range m.Slots {
			w.slot(&m.Slots[i])
		}
		w.trans(&m.Trans)
	}
	return w.buf
}

func decodeProgram(data []byte) (*simd.Program, error) {
	r := &reader{data: data}
	p := &simd.Program{
		Start:            r.intv(),
		Words:            r.intv(),
		NStates:          r.intv(),
		Barriers:         r.set(),
		SupersetDispatch: r.boolval(),
		VarSlot:          r.slotMap(),
		RetSlot:          r.slotMap(),
	}
	n := r.uvarint()
	if r.err != nil || n > uint64(r.rem())+1 {
		return nil, corrupt("program: bad meta count")
	}
	p.Meta = make([]*simd.MetaCode, n)
	for i := range p.Meta {
		m := &simd.MetaCode{ID: r.intv(), Set: r.set()}
		ns := r.uvarint()
		if ns > uint64(r.rem()) {
			return nil, corrupt("program: bad slot count in meta %d", i)
		}
		if ns > 0 {
			m.Slots = make([]simd.Slot, ns)
			for j := range m.Slots {
				m.Slots[j] = r.slot()
			}
		}
		m.Trans = r.trans()
		p.Meta[i] = m
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.rem() != 0 {
		return nil, corrupt("program: %d trailing bytes", r.rem())
	}
	if p.Start < 0 || p.Start >= len(p.Meta) {
		return nil, corrupt("program: start %d out of range", p.Start)
	}
	if p.Barriers == nil {
		return nil, corrupt("program: missing barrier set")
	}
	if err := simd.Validate(p); err != nil {
		return nil, corrupt("program: %v", err)
	}
	var terms terminatorCheck
	for i, m := range p.Meta {
		if m.Set == nil {
			return nil, corrupt("program: meta %d missing set", i)
		}
		for _, e := range m.Trans.Entries {
			if e.To < 0 || e.To >= len(p.Meta) {
				return nil, corrupt("program: meta %d dispatches to %d, out of range", i, e.To)
			}
			if e.Key == nil {
				return nil, corrupt("program: meta %d has a nil dispatch key", i)
			}
		}
		if h := m.Trans.Hash; h != nil {
			for _, to := range h.Table {
				if to != -1 && (to < 0 || to >= len(p.Meta)) {
					return nil, corrupt("program: meta %d hash table entry %d out of range", i, to)
				}
			}
		}
		if err := terms.check(m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// terminatorCheck adds to simd.Validate's rules one that compiled code
// keeps and the VM does not need: every PE state a slot guard names
// has exactly one terminator slot. The sets are reused across one
// program's meta states.
type terminatorCheck struct{ named, termed, found bitset.Set }

func (c *terminatorCheck) check(m *simd.MetaCode) error {
	c.named.Reset()
	c.termed.Reset()
	for j := range m.Slots {
		g := m.Slots[j].Guard
		c.named.UnionWith(g)
		if m.Slots[j].Kind == simd.SlotExec {
			continue
		}
		if c.termed.Intersects(g) {
			c.found.IntersectOf(&c.termed, g)
			return corrupt("program: meta %d state %d has a second terminator slot", m.ID, c.found.Min())
		}
		c.termed.UnionWith(g)
	}
	if !c.named.Equal(&c.termed) {
		c.found.MinusOf(&c.named, &c.termed)
		return corrupt("program: meta %d state %d has no terminator slot", m.ID, c.found.Min())
	}
	return nil
}

func (w *writer) slot(s *simd.Slot) {
	w.byteval(byte(s.Kind))
	w.set(s.Guard)
	w.instr(s.Instr)
	w.intv(s.To)
	w.intv(s.FTo)
	w.intv(s.ChildTo)
	w.intv(s.Block)
	w.pos(s.Pos)
}

func (r *reader) slot() simd.Slot {
	return simd.Slot{
		Kind:    simd.SlotKind(r.byteval()),
		Guard:   r.set(),
		Instr:   r.instr(),
		To:      r.intv(),
		FTo:     r.intv(),
		ChildTo: r.intv(),
		Block:   r.intv(),
		Pos:     r.pos(),
	}
}

func (w *writer) trans(t *simd.Trans) {
	w.byteval(byte(t.Kind))
	w.boolval(t.ExitCheck)
	w.uvarint(uint64(len(t.Entries)))
	for _, e := range t.Entries {
		w.set(e.Key)
		w.intv(e.To)
	}
	if t.Hash == nil {
		w.boolval(false)
		return
	}
	w.boolval(true)
	h := t.Hash
	w.intv(h.ShiftA)
	w.intv(h.ShiftB)
	w.boolval(h.UseB)
	w.u64(h.Mul)
	w.intv(h.ShiftM)
	w.boolval(h.UseMul)
	w.u64(h.Mask)
	w.ints(h.Table)
	w.intv(h.EvalCost)
}

func (r *reader) trans() simd.Trans {
	t := simd.Trans{
		Kind:      simd.TransKind(r.byteval()),
		ExitCheck: r.boolval(),
	}
	n := r.uvarint()
	if n > uint64(r.rem()) {
		r.fail("dispatch entries")
		return t
	}
	if n > 0 {
		t.Entries = make([]simd.DispatchEntry, n)
		for i := range t.Entries {
			t.Entries[i] = simd.DispatchEntry{Key: r.set(), To: r.intv()}
		}
	}
	if r.boolval() {
		t.Hash = &simd.HashFn{
			ShiftA:   r.intv(),
			ShiftB:   r.intv(),
			UseB:     r.boolval(),
			Mul:      r.u64(),
			ShiftM:   r.intv(),
			UseMul:   r.boolval(),
			Mask:     r.u64(),
			Table:    r.ints(),
			EvalCost: r.intv(),
		}
	}
	return t
}
