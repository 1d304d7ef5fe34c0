package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"msc"
	"msc/internal/harness"
	"msc/internal/ir"
	"msc/internal/progen"
	"msc/internal/simd"
)

// Output checks of the compile-style workloads run every compiled
// program at this width. checkSteps bounds both the check run and its
// reference, so the corpus's deliberately non-terminating program costs
// milliseconds and fails the same typed way on both engines; every
// terminating pool program needs far fewer steps.
const (
	checkN     = 16
	checkSteps = 1 << 14
)

// progEntry is one (program, config) pair of a compile-style pool.
type progEntry struct {
	name string
	src  string
	conf msc.Config
	// ia is the check run's InitialActive: 1 for programs that spawn,
	// so their workers come from the free pool.
	ia int
}

// spawns reports whether the program spawns workers. Which free PE a
// spawn claims, and so what the workers leave in memory, depends on
// when earlier workers halted: the MIMD reference machine and the SIMD
// machine keep different clocks and legitimately place workers
// differently. Only the PEs main runs on hold an image both engines
// must agree on.
func (en *progEntry) spawns() bool { return strings.Contains(en.src, "spawn") }

// reference is an entry's expected check-run outcome, computed during
// set-up by an engine independent of the one under test.
type reference struct {
	mem [][]ir.Word
	err error
	// pes, when non-zero, limits the image comparison to the first pes
	// PEs: for a spawning program checked against mimdsim, the PEs that
	// run main, whose words do not depend on where workers landed.
	pes    int
	cycles int64 // SIMD cycles of the set-up compile's check run
	// enabled is that run's enabled PE-cycles (simd.Result.EnabledCycles).
	enabled int64
	slots   int
}

// compileBench is the compile and explode workloads: one client
// compiling pool entries with msc.CompileContext (untraced) or the
// layer driver (traced).
type compileBench struct {
	entries []progEntry
	weights []int
	refs    []reference
	ctx     context.Context

	peSteps atomic.Int64 // traced phase: N×cycles of the check runs
}

func (b *compileBench) deck() []int { return deckOf(b.weights) }

// deckOf lists entry e weights[e] times.
func deckOf(weights []int) []int {
	var d []int
	for e, w := range weights {
		for i := 0; i < w; i++ {
			d = append(d, e)
		}
	}
	return d
}

func (b *compileBench) entryName(e int) string { return b.entries[e].name }

func (b *compileBench) close() error { return nil }

func (b *compileBench) counts() (int64, int64) {
	var cycles, slots int64
	for _, r := range b.refs {
		cycles += r.cycles
		slots += int64(r.slots)
	}
	return cycles, slots
}

// newCompileBench compiles every entry once, computes its reference
// outcome and records the deterministic counts. This is the workload's
// set-up: it also warms every code path the ops take.
func newCompileBench(e *env, entries []progEntry, weights []int) (*compileBench, error) {
	b := &compileBench{entries: entries, weights: weights, ctx: context.Background()}
	for i := range entries {
		en := &entries[i]
		c, err := msc.Compile(en.src, en.conf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", en.name, err)
		}
		b.refs = append(b.refs, newReference(e, en, c, checkN, checkSteps, false))
	}
	return b, nil
}

// newReference runs en's compiled program c at width n on the
// reference engine, and once on the SIMD machine for its cycle counts.
// maxSteps bounds both runs; 0 means the engines' default.
//
// The reference engine is mimdsim, which runs the MIMD state graph and
// so shares neither conversion nor code generation with the program
// under test. A spawning program is compared on main's PEs only (see
// spawns), unless vmRef is set: the run workload, which measures the
// VM rather than the compiler, checks spawning programs' whole image
// against the scalar SIMD reference VM instead.
func newReference(e *env, en *progEntry, c *msc.Compiled, n, maxSteps int, vmRef bool) reference {
	ref := reference{slots: programSlots(c.Program)}
	rc := msc.RunConfig{N: n, InitialActive: en.ia, MaxSteps: maxSteps}
	if en.spawns() && vmRef {
		res, err := simd.ReferenceRun(c.Program, simd.Config{N: n, InitialActive: en.ia, MaxMeta: maxSteps})
		ref.err = err
		if res != nil {
			ref.mem = res.Mem
		}
	} else {
		if en.spawns() {
			ref.pes = en.ia
		}
		e.trace.call(nil, "mimdsim.run", func() {
			res, err := c.RunMIMD(rc)
			ref.err = err
			if res != nil {
				ref.mem = res.Mem
			}
		})
	}
	if res, err := c.RunSIMD(rc); err == nil {
		ref.cycles, ref.enabled = res.Time, res.EnabledCycles
	}
	return ref
}

func (b *compileBench) op(seq, e int, tr *tracer) (time.Duration, error) {
	en := &b.entries[e]
	if tr == nil {
		start := time.Now()
		c, err := msc.CompileContext(b.ctx, en.src, en.conf)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("compile: %w", err)
		}
		return lat, b.check(e, c.Program, nil)
	}
	root := tr.opSpan(seq)
	start := time.Now()
	out, err := driveLayers(b.ctx, en.src, en.conf, tr, root)
	lat := time.Since(start)
	root.End()
	if err != nil {
		return lat, err
	}
	var rp codingReplay
	tr.call(nil, "replay.coding", func() { rp, err = replayCoding(out.auto, en.conf) })
	if err != nil {
		return lat, err
	}
	tr.add("csi", rp.csiTime)
	tr.add("hashgen", rp.hashTime)
	return lat, b.check(e, out.prog, tr)
}

// check runs prog at the check width and compares the outcome with the
// entry's reference: the same memory image, or the same kind of typed
// error.
func (b *compileBench) check(e int, prog *simd.Program, tr *tracer) error {
	en := &b.entries[e]
	var res *simd.Result
	var err error
	tr.call(nil, "simd.run", func() {
		res, err = simd.Run(prog, simd.Config{N: checkN, InitialActive: en.ia, MaxMeta: checkSteps})
	})
	if tr != nil && res != nil {
		b.peSteps.Add(int64(checkN) * res.Time)
	}
	var mem [][]ir.Word
	if res != nil {
		mem = res.Mem
	}
	return sameOutcome(mem, err, &b.refs[e])
}

// sameOutcome compares a run's outcome with its reference's. Only the
// reference's words are compared: §2.4 time splitting appends spill
// slots after the program's own words, and the reference runs the
// unsplit program. A non-zero ref.pes limits the comparison to the
// first ref.pes PEs.
func sameOutcome(mem [][]ir.Word, err error, ref *reference) error {
	refMem, refErr := ref.mem, ref.err
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("outcome differs from the reference: error %v, reference error %v", err, refErr)
	}
	if err != nil {
		if errKind(err) != errKind(refErr) {
			return fmt.Errorf("error %q differs in kind from the reference's %q", err, refErr)
		}
		return nil
	}
	if len(mem) != len(refMem) {
		return fmt.Errorf("memory image has %d PEs, reference %d", len(mem), len(refMem))
	}
	if ref.pes > 0 {
		mem = mem[:min(ref.pes, len(mem))]
	}
	for pe := range mem {
		if len(mem[pe]) < len(refMem[pe]) {
			return fmt.Errorf("PE %d has %d words, reference %d", pe, len(mem[pe]), len(refMem[pe]))
		}
		for w := range refMem[pe] {
			if mem[pe][w] != refMem[pe][w] {
				return fmt.Errorf("PE %d word %d is %d, reference %d", pe, w, mem[pe][w], refMem[pe][w])
			}
		}
	}
	return nil
}

// errKind is the taxonomy class of an engine error: step-limit errors
// are typed; runtime faults (a spawn with no free PE, a bad address)
// are plain errors on every engine.
func errKind(err error) string {
	var se *msc.StepLimitError
	if errors.As(err, &se) {
		return "step_limit"
	}
	return "fault"
}

func (b *compileBench) layers(m map[string]metric, tr *tracer) error {
	pc, gateErr := gate(b.ctx, b.entries)
	lt, err := tracedLayers(m, tr)
	if err != nil {
		return err
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("mimdc.ms", lt.perOp("mimdc.parse", "mimdc.analyze"))
	set("cfg.ms", lt.perOp("cfg.build", "cfg.simplify"))
	set("opt.ms", lt.perOp("opt.run"))
	set("msc.convert_ms", lt.perOp("msc.convert"))
	set("msc.check_ms", lt.perOp("msc.check"))
	set("analysis.ms", lt.perOp("analysis.analyze"))
	set("codegen.ms", lt.perOp("codegen.compile"))
	set("simd.ms", lt.perOp("simd.run"))
	if lt.ops > 0 {
		set("csi.ms", ms(tr.accumulated("csi"))/float64(lt.ops))
		set("hashgen.ms", ms(tr.accumulated("hashgen"))/float64(lt.ops))
	}
	if simdTime := lt.self["simd.run"]; simdTime > 0 {
		set("simd.pe_steps_per_s", float64(b.peSteps.Load())/simdTime.Seconds())
	}
	set("mimdsim.ms", lt.mean("mimdsim.run"))
	set("simd.utilization", b.utilization())

	set("mimdc.tokens", float64(pc.tokens))
	set("cfg.blocks", float64(pc.blocks))
	set("opt.rewrites", float64(pc.rewrites))
	set("msc.meta_states", float64(pc.metaStates))
	set("msc.explored", float64(pc.explored))
	set("msc.kept_ratio", ratio(pc.metaStates, pc.explored))
	set("msc.restarts", float64(pc.restarts))
	set("analysis.diagnostics", float64(pc.diags))
	set("codegen.slots", float64(pc.slots))
	set("csi.saved_cycles", float64(pc.csiSaved))
	set("hashgen.tried", float64(pc.hashTried))
	set("hashgen.found_ratio", ratio(pc.hashBuilt, pc.hashSearched))
	return gateErr
}

// utilization is enabled over issued PE-cycles of the pool's set-up
// check runs: deterministic, like every count.
func (b *compileBench) utilization() float64 {
	var enabled, issued int64
	for _, r := range b.refs {
		enabled += r.enabled
		issued += int64(checkN) * r.cycles
	}
	return ratio(enabled, issued)
}

// ---- pools ------------------------------------------------------------

// setupCompile builds the compile workload: what `msc compile` and every
// cache miss pay. Its programs come from three sources, each program
// drawn equally often: the paper suite, the committed .mc corpus
// outside testdata/vet/bad, and a fixed fleet of generated programs of
// mixed shapes. Each program runs three times per round under
// DefaultConfig and once at Opt:2, so a quarter of the ops optimize.
func setupCompile(e *env) (bench, error) {
	var progs []progEntry
	for _, w := range harness.BenchSuite() {
		progs = append(progs, progEntry{name: "suite/" + w.Name, src: w.Source, ia: w.InitialActive})
	}
	corpus, err := corpusPrograms(e.root)
	if err != nil {
		return nil, err
	}
	progs = append(progs, corpus...)
	progs = append(progs, fleet()...)

	var entries []progEntry
	var weights []int
	opt2 := msc.DefaultConfig()
	opt2.Opt = 2
	for _, p := range progs {
		if p.ia == 0 && p.spawns() {
			p.ia = 1
		}
		p.conf = msc.DefaultConfig()
		entries = append(entries, p)
		weights = append(weights, 3)
		p.name += "@opt2"
		p.conf = opt2
		entries = append(entries, p)
		weights = append(weights, 1)
	}
	return newCompileBench(e, entries, weights)
}

// corpusPrograms reads every committed .mc program under examples/ and
// testdata/ except the deliberately invalid testdata/vet/bad.
func corpusPrograms(root string) ([]progEntry, error) {
	var out []progEntry
	for _, dir := range []string{"examples", "testdata"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if d.IsDir() && rel == "testdata/vet/bad" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(rel, ".mc") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out = append(out, progEntry{name: rel, src: string(src)})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("reading the .mc corpus: %w", err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no .mc corpus under %s", root)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// fleetSize is the generated part of the compile pool.
const fleetSize = 24

// fleet is a fixed fleet of generated programs cycling through four
// shapes: barrier phases, float arithmetic with calls, spawn-heavy, and
// calls. The generator seeds are fixed rather than drawn from the
// workload seed: the fleet's compile times and cycle counts are
// heavy-tailed, and a fleet that changed with the seed would move
// every end-to-end number from seed to seed. The workload seed orders
// the ops instead.
func fleet() []progEntry {
	var out []progEntry
	for i := 0; i < fleetSize; i++ {
		p := progen.Params{Seed: int64(9000 + i), MaxDepth: 2 + i%2, MaxStmts: 5}
		shape := ""
		switch i % 4 {
		case 0:
			p.Barriers, shape = true, "barriers"
		case 1:
			p.Floats, p.Calls, shape = true, true, "floats"
		case 2:
			p.Spawns, shape = 2+i%5, "spawns"
		default:
			p.Calls, shape = true, "calls"
		}
		out = append(out, progEntry{name: fmt.Sprintf("progen/%s-%d", shape, p.Seed), src: progen.Source(p)})
	}
	return out
}

// setupExplode builds the explode workload: the mirror image of compile.
// Most ops build the uncompressed §1.2 automaton with hashed dispatch
// and CSI off, on programs whose meta-state count explodes (SeqLoops up
// to 4096 meta states, BarrierPhases, the paper suite); the rest run
// §2.4 time splitting on Imbalance programs. Without it hash search
// would go unmeasured: compressed automata dispatch by superset and
// never search.
func setupExplode(e *env) (bench, error) {
	explode := msc.Config{Hash: true}
	split := msc.Config{Hash: true, TimeSplit: true}
	var entries []progEntry
	add := func(name, src string, conf msc.Config, ia int) {
		entries = append(entries, progEntry{name: name, src: src, conf: conf, ia: ia})
	}
	for k := 2; k <= 6; k++ {
		add(fmt.Sprintf("seqloops-%d", k), harness.SeqLoops(k, false), explode, 0)
		add(fmt.Sprintf("seqloops-barrier-%d", k), harness.SeqLoops(k, true), explode, 0)
	}
	for _, k := range []int{2, 4, 8, 16, 32} {
		add(fmt.Sprintf("barrierphases-%d", k), harness.BarrierPhases(k), explode, 0)
	}
	for _, w := range harness.BenchSuite() {
		add("suite/"+w.Name, w.Source, explode, w.InitialActive)
	}
	for _, r := range []int{5, 10, 20, 50} {
		add(fmt.Sprintf("imbalance-%d", r), harness.Imbalance(r), split, 0)
	}
	weights := make([]int, len(entries))
	for i := range weights {
		weights[i] = 1
	}
	return newCompileBench(e, entries, weights)
}
