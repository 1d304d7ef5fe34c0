package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"msc"
	"msc/internal/analysis"
	"msc/internal/artifact"
	"msc/internal/bitset"
	"msc/internal/cfg"
	"msc/internal/codegen"
	"msc/internal/csi"
	"msc/internal/hashgen"
	"msc/internal/mimdc"
	metastate "msc/internal/msc"
	"msc/internal/obs"
	"msc/internal/opt"
	"msc/internal/simd"
	"msc/internal/telemetry"
)

// layerOut is what the layer driver produced for one compile.
type layerOut struct {
	graph *cfg.Graph
	auto  *metastate.Automaton
	prog  *simd.Program
	rec   *obs.Recorder
	diags int
	// rewrites sums the optimizer's rewrite counts (0 at Opt:0).
	rewrites int
}

// driveLayers runs the pipeline msc.CompileContext runs, one layer
// entry point at a time, so the traced phase can time each call from
// outside the program: the same calls in the same order with the same
// options as api.go's pipeline. The equivalence gate (gate) proves the
// result identical to msc.Compile's on every pool entry. Under a nil
// tracer the calls just run.
func driveLayers(ctx context.Context, src string, conf msc.Config, tr *tracer, op *telemetry.Span) (*layerOut, error) {
	out := &layerOut{rec: obs.NewRecorder()}
	var err error
	var ast *mimdc.Program
	tr.call(op, "mimdc.parse", func() { ast, err = mimdc.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	out.rec.Add(obs.CounterTokens, int64(ast.Tokens))
	tr.call(op, "mimdc.analyze", func() { err = mimdc.Analyze(ast) })
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	tr.call(op, "cfg.build", func() {
		out.graph, err = cfg.BuildWith(ast, cfg.Options{ExpandCalls: conf.ExpandCalls})
		if err == nil && conf.Verify {
			err = cfg.VerifyAll(out.graph)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	g := out.graph
	tr.call(op, "cfg.simplify", func() {
		st := cfg.SimplifyWithStats(g)
		out.rec.Add(obs.CounterBlocksAfter, int64(st.BlocksAfter))
		verify := cfg.Verify
		if conf.Verify {
			verify = cfg.VerifyAll
		}
		err = verify(g)
	})
	if err != nil {
		return nil, fmt.Errorf("simplify: %w", err)
	}
	vetG := g
	if conf.Opt > 0 {
		vetG = g.Clone()
		tr.call(op, "opt.run", func() {
			var st opt.Stats
			st, err = opt.Run(g, opt.Options{Level: conf.Opt, Verify: conf.Verify})
			out.rewrites = st.ConstFolds + st.DeadStores + st.BranchesPruned + st.CopiesPropagated
		})
		if err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
	}
	mopt := conversionOptions(conf)
	mopt.Metrics = out.rec
	tr.call(op, "msc.convert", func() { out.auto, err = metastate.ConvertContext(ctx, g, mopt) })
	if err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	tr.call(op, "msc.check", func() { err = metastate.Check(out.auto) })
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	tr.call(op, "analysis.analyze", func() { out.diags = len(analysis.Analyze(vetG, out.auto)) })
	tr.call(op, "codegen.compile", func() {
		out.prog, err = codegen.Compile(out.auto, codegen.Options{
			Hash:             conf.Hash,
			CSI:              conf.CSI,
			MaxCSICandidates: conf.Limits.MaxCSICandidates,
			Metrics:          out.rec,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	return out, nil
}

// conversionOptions is a copy of the unexported mapping api.go uses
// from Config to the converter's options. The equivalence gate fails
// if the copy ever drifts from the original.
func conversionOptions(conf msc.Config) metastate.Options {
	mopt := metastate.DefaultOptions(conf.Compress)
	mopt.TimeSplit = conf.TimeSplit
	if conf.SplitDelta != 0 {
		mopt.SplitDelta = conf.SplitDelta
	}
	if conf.SplitPercent != 0 {
		mopt.SplitPercent = conf.SplitPercent
	}
	mopt.BarrierExact = conf.BarrierExact
	if conf.MaxStates != 0 {
		mopt.MaxStates = conf.MaxStates
	}
	if conf.Limits.MaxStates != 0 {
		mopt.MaxStates = conf.Limits.MaxStates
	}
	mopt.MaxMemBytes = conf.Limits.MaxMemBytes
	mopt.Workers = conf.ConvertWorkers
	return mopt
}

// codingReplay is what replayCoding measured.
type codingReplay struct {
	csiSaved  int64
	hashTried int64
	searched  int // switches hash search ran on
	built     int // of which found a function
	csiTime   time.Duration
	hashTime  time.Duration
}

// maxHashedWays is codegen's bound on hashed switch width.
const maxHashedWays = 32

// replayCoding calls csi.InduceLimited and hashgen.Search on the same
// threads and dispatch keys codegen.Compile hands them for automaton
// a, timing each call. codegen makes these calls inside
// codegen.Compile, where the benchmark cannot reach them, so the
// replay runs beside the op, off its clock; the equivalence gate checks
// that the replayed results sum to the compile's own counters.
func replayCoding(a *metastate.Automaton, conf msc.Config) (codingReplay, error) {
	var r codingReplay
	superset := a.Opt.Compress || a.Opt.MergeSubsets || a.OverApprox
	for _, ms := range a.States {
		if conf.CSI {
			allBarrier := ms.Set.Subset(a.Barriers)
			var threads []csi.Thread
			for _, id := range ms.Set.Elems() {
				b := a.G.Block(id)
				if b == nil {
					return r, fmt.Errorf("ms%d references missing MIMD state %d", ms.ID, id)
				}
				if b.Barrier && !allBarrier {
					continue
				}
				threads = append(threads, csi.Thread{Guard: bitset.Of(b.ID), Code: b.Code})
			}
			start := time.Now()
			sched, err := csi.InduceLimited(threads, csi.Limits{MaxCandidates: conf.Limits.MaxCSICandidates})
			r.csiTime += time.Since(start)
			if err != nil {
				return r, fmt.Errorf("csi: ms%d: %w", ms.ID, err)
			}
			r.csiSaved += int64(sched.Saved())
		}
		if !conf.Hash || superset || len(ms.Trans) < 2 || len(ms.Trans) > maxHashedWays {
			continue
		}
		keys := make([]uint64, 0, len(ms.Trans))
		for _, to := range ms.Trans {
			w, ok := a.States[to].Set.Word()
			if !ok {
				break
			}
			keys = append(keys, w)
		}
		if len(keys) < len(ms.Trans) {
			continue
		}
		start := time.Now()
		_, tried, err := hashgen.Search(keys)
		r.hashTime += time.Since(start)
		r.hashTried += int64(tried)
		r.searched++
		if err == nil {
			r.built++
		}
	}
	return r, nil
}

// pipelineCounts are the deterministic per-layer counts of one pool
// entry, taken by the gate.
type pipelineCounts struct {
	tokens, blocks, rewrites int64
	metaStates, explored     int64
	restarts, diags, slots   int64
	csiSaved, hashTried      int64
	hashSearched, hashBuilt  int64
}

// gate is the layer driver's equivalence gate: for every pool entry
// the driver's graph, automaton and program must fingerprint like
// msc.Compile's, its diagnostic count must equal VetDiagnostics, and
// the replayed CSI and hash calls must sum to CSISavedCycles and
// HashCandidatesTried. Any mismatch fails the traced run, so per-layer
// times keep measuring the work msc.Compile does. The same pass
// collects the deterministic per-layer counts.
func gate(ctx context.Context, entries []progEntry) (pipelineCounts, error) {
	var pc pipelineCounts
	var errs []error
	for _, en := range entries {
		c, err := msc.CompileContext(ctx, en.src, en.conf)
		if err != nil {
			return pc, fmt.Errorf("%s: msc.Compile: %w", en.name, err)
		}
		out, err := driveLayers(ctx, en.src, en.conf, nil, nil)
		if err != nil {
			return pc, fmt.Errorf("%s: layer driver: %w", en.name, err)
		}
		rp, err := replayCoding(out.auto, en.conf)
		if err != nil {
			return pc, fmt.Errorf("%s: coding replay: %w", en.name, err)
		}
		bad := mismatches(c, out, rp)
		if len(bad) > 0 {
			errs = append(errs, fmt.Errorf("%s: driver differs from msc.Compile: %v", en.name, bad))
		}
		pc.tokens += out.rec.Value(obs.CounterTokens)
		pc.blocks += out.rec.Value(obs.CounterBlocksAfter)
		pc.rewrites += int64(out.rewrites)
		pc.metaStates += int64(out.auto.NumStates())
		pc.explored += out.rec.Value(obs.CounterMetaExplored)
		pc.restarts += int64(out.auto.Restarts)
		pc.diags += int64(out.diags)
		pc.slots += int64(programSlots(out.prog))
		pc.csiSaved += rp.csiSaved
		pc.hashTried += rp.hashTried
		pc.hashSearched += int64(rp.searched)
		pc.hashBuilt += int64(rp.built)
	}
	return pc, errors.Join(errs...)
}

// mismatches lists where the layer driver's compile differs from
// msc.Compile's.
func mismatches(c *msc.Compiled, out *layerOut, rp codingReplay) []string {
	var bad []string
	if artifact.Fingerprint(&artifact.Artifact{Graph: out.graph, Automaton: out.auto, Program: out.prog}) != c.Fingerprint() {
		bad = append(bad, "fingerprint")
	}
	check := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s %d != %d", what, got, want))
		}
	}
	st := c.Stats
	check("diagnostics", int64(out.diags), st.VetDiagnostics)
	check("csi saved cycles", rp.csiSaved, st.CSISavedCycles)
	check("hash candidates tried", rp.hashTried, st.HashCandidatesTried)
	check("tokens", out.rec.Value(obs.CounterTokens), st.TokensParsed)
	check("blocks", out.rec.Value(obs.CounterBlocksAfter), st.BlocksAfterSimplify)
	check("meta states", int64(out.auto.NumStates()), st.MetaStates)
	check("explored", out.rec.Value(obs.CounterMetaExplored), st.MetaExplored)
	return bad
}

// programSlots is a SIMD program's size: its total slot count.
func programSlots(p *simd.Program) int {
	n := 0
	for _, m := range p.Meta {
		n += len(m.Slots)
	}
	return n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
