package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"msc"
	"msc/internal/harness"
	"msc/internal/ir"
	"msc/internal/progen"
	"msc/internal/simd"
)

// runWidths are the machine widths the run workload executes at.
var runWidths = []int{16384, 65536}

// runEntry is one (program, width) pair of the run workload.
type runEntry struct {
	prog int
	n    int
	ref  reference
}

// runBench is the run workload: programs compiled during set-up and
// executed with RunSIMD by one client, the VM using nproc workers.
type runBench struct {
	progs   []progEntry
	comp    []*msc.Compiled
	entries []runEntry
	peSteps atomic.Int64
}

// setupRun builds the run workload from programs whose per-PE work does
// not grow with the width, so a width's cost is the VM's alone: the
// width-sweep set without collatz (its trip counts grow with iproc),
// gcd, and generated spawn-heavy and barrier programs.
func setupRun(e *env) (bench, error) {
	b := &runBench{}
	for _, w := range harness.SweepWorkloads() {
		if w.Name == "collatz" {
			continue
		}
		b.progs = append(b.progs, progEntry{name: w.Name, src: w.Source, ia: w.InitialActive})
	}
	b.progs = append(b.progs, progEntry{name: "gcd", src: harness.GCD})
	for _, s := range []int64{40, 41} {
		b.progs = append(b.progs, progEntry{name: fmt.Sprintf("progen/spawns-%d", s), ia: 1,
			src: progen.Source(progen.Params{Seed: s, Spawns: 8, MaxDepth: 2, MaxStmts: 5})})
	}
	for _, s := range []int64{0, 1} {
		b.progs = append(b.progs, progEntry{name: fmt.Sprintf("progen/barriers-%d", s),
			src: progen.Source(progen.Params{Seed: s, Barriers: true, MaxDepth: 2, MaxStmts: 5})})
	}
	for p, pe := range b.progs {
		c, err := msc.Compile(pe.src, msc.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pe.name, err)
		}
		b.comp = append(b.comp, c)
		for _, n := range runWidths {
			en := runEntry{prog: p, n: n}
			en.ref = newReference(e, &pe, c, n, 0, true)
			b.entries = append(b.entries, en)
		}
	}
	return b, nil
}

func (b *runBench) deck() []int {
	d := make([]int, len(b.entries))
	for i := range d {
		d[i] = i
	}
	return d
}

func (b *runBench) entryName(e int) string {
	en := b.entries[e]
	return fmt.Sprintf("%s@%d", b.progs[en.prog].name, en.n)
}

func (b *runBench) close() error { return nil }

func (b *runBench) counts() (int64, int64) {
	var cycles, slots int64
	for _, en := range b.entries {
		cycles += en.ref.cycles
	}
	for _, c := range b.comp {
		slots += int64(programSlots(c.Program))
	}
	return cycles, slots
}

func (b *runBench) op(seq, e int, tr *tracer) (time.Duration, error) {
	en := &b.entries[e]
	c := b.comp[en.prog]
	rc := msc.RunConfig{N: en.n, InitialActive: b.progs[en.prog].ia}
	root := tr.opSpan(seq)
	var res *simd.Result
	var err error
	start := time.Now()
	tr.call(root, "simd.run", func() { res, err = c.RunSIMD(rc) })
	lat := time.Since(start)
	root.End()
	if tr != nil && res != nil {
		b.peSteps.Add(int64(en.n) * res.Time)
	}
	var mem [][]ir.Word
	if res != nil {
		mem = res.Mem
	}
	return lat, sameOutcome(mem, err, &en.ref)
}

func (b *runBench) layers(m map[string]metric, tr *tracer) error {
	lt, err := tracedLayers(m, tr)
	if err != nil {
		return err
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("simd.ms", lt.perOp("simd.run"))
	if simdTime := lt.self["simd.run"]; simdTime > 0 {
		set("simd.pe_steps_per_s", float64(b.peSteps.Load())/simdTime.Seconds())
	}
	var enabled, issued int64
	for _, en := range b.entries {
		enabled += en.ref.enabled
		issued += int64(en.n) * en.ref.cycles
	}
	set("simd.utilization", ratio(enabled, issued))
	set("mimdsim.ms", lt.mean("mimdsim.run"))
	return nil
}
