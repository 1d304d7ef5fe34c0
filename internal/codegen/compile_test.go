package codegen

import (
	"fmt"
	"strings"
	"testing"

	"msc/internal/cfg"
	"msc/internal/mimdsim"
	"msc/internal/msc"
	"msc/internal/obs"
	"msc/internal/progen"
	"msc/internal/simd"
)

const listing4 = `
void main()
{
    poly int x;
    if (x) {
        do { x = 1; } while (x);
    } else {
        do { x = 2; } while (x);
    }
    return;
}
`

// runnable variant of Listing 1 used for execution tests (Listing 4's
// loops never terminate at run time; MSC is static so the paper did not
// need them to).
const listing1Run = `
poly int x;
void main()
{
    x = iproc % 3;
    if (x) {
        do { x = x - 1; } while (x);
    } else {
        do { x = x + 2; } while (x < 4);
    }
    x = x + 100;
    return;
}
`

func buildGraph(t testing.TB, src string) *cfg.Graph {
	t.Helper()
	g := cfg.Simplify(cfg.MustBuild(src))
	if err := cfg.Verify(g); err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g
}

// modes enumerates every conversion × encoding combination exercised by
// the equivalence tests.
var modes = []struct {
	name string
	conv func() msc.Options
	code Options
}{
	{"base", func() msc.Options { return msc.DefaultOptions(false) }, Options{}},
	{"base+hash", func() msc.Options { return msc.DefaultOptions(false) }, Options{Hash: true}},
	{"base+csi", func() msc.Options { return msc.DefaultOptions(false) }, Options{CSI: true}},
	{"base+hash+csi", func() msc.Options { return msc.DefaultOptions(false) }, Options{Hash: true, CSI: true}},
	{"compress", func() msc.Options { return msc.DefaultOptions(true) }, Options{}},
	{"compress+csi", func() msc.Options { return msc.DefaultOptions(true) }, Options{CSI: true}},
	{"base+timesplit", func() msc.Options {
		o := msc.DefaultOptions(false)
		o.TimeSplit = true
		return o
	}, Options{}},
	{"exactbarrier", func() msc.Options {
		o := msc.DefaultOptions(false)
		o.BarrierExact = true
		return o
	}, Options{}},
}

// coverSink fails a run when a live PE occupies a MIMD state that its
// meta state's set does not cover: the §2.3 invariant the conversion
// guarantees. Barrier waiters arrive as obs.PEWait, so it skips them.
type coverSink struct{ p *simd.Program }

func (s coverSink) Emit(e *obs.Event) error {
	if e.Kind != obs.EventTimeline {
		return nil
	}
	set := s.p.Meta[e.Meta].Set
	for pe, st := range e.PEs {
		if st >= 0 && !set.Has(st) {
			return fmt.Errorf("ms%d %s: PE %d occupies uncovered state %d (conversion bug)", e.Meta, set, pe, st)
		}
	}
	return nil
}

// TestCoverSinkFires breaks the covering invariant on purpose: with one
// member dropped from a visited meta state's set, the PEs in that
// state are uncovered and the run must fail.
func TestCoverSinkFires(t *testing.T) {
	a, err := msc.Convert(buildGraph(t, listing1Run), msc.DefaultOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	p := MustCompile(a, Options{})
	res, err := simd.Run(p, simd.Config{N: 7, Sink: coverSink{p}})
	if err != nil {
		t.Fatal(err)
	}
	ms := -1
	for id, st := range res.MetaStats {
		if id != p.Start && st.Visits > 0 {
			ms = id
			break
		}
	}
	if ms < 0 {
		t.Fatal("no meta state besides the start was visited")
	}
	// The set is shared with the automaton, so drop the member from a
	// clone.
	set := p.Meta[ms].Set.Clone()
	set.Remove(set.Min())
	p.Meta[ms].Set = set
	_, err = simd.Run(p, simd.Config{N: 7, Sink: coverSink{p}})
	if err == nil || !strings.Contains(err.Error(), "uncovered state") {
		t.Fatalf("ms%d narrowed to %s: got %v, want an uncovered-state failure", ms, set, err)
	}
}

// checkEquivalence runs src on the MIMD reference machine and on the
// SIMD machine under every mode, and requires bit-identical memory.
// initialActive == 0 means all PEs start in main. Modes with the same
// conversion options share one automaton: Compile and the SIMD run only
// read it, and its printed states, sets and transitions must read the
// same after the last mode as before the first. It returns how many
// modes the state explosion guard skipped.
func checkEquivalence(t *testing.T, name, src string, n int, initialActive ...int) (skipped int) {
	t.Helper()
	ia := 0
	if len(initialActive) > 0 {
		ia = initialActive[0]
	}
	g := buildGraph(t, src)
	ref, err := mimdsim.Run(g, mimdsim.Config{N: n, InitialActive: ia})
	if err != nil {
		t.Fatalf("%s: mimdsim: %v", name, err)
	}
	type conversion struct {
		a    *msc.Automaton
		err  error
		mode string // the first mode that converted with these options
		fp   string // a.String() before any mode compiled it
	}
	convs := map[msc.Options]conversion{}
	for _, m := range modes {
		conv := m.conv()
		if conv.MaxStates > 4000 {
			conv.MaxStates = 4000 // keep explosion bail-outs fast in tests
		}
		c, ok := convs[conv]
		if !ok {
			c.a, c.err = msc.Convert(g, conv)
			c.mode = m.name
			if c.err == nil {
				if err := msc.Check(c.a); err != nil {
					t.Fatalf("%s/%s: check: %v", name, m.name, err)
				}
				c.fp = c.a.String()
			}
			convs[conv] = c
		}
		if c.err != nil {
			if strings.Contains(c.err.Error(), "exceeded") {
				// The §1.2 state explosion guard fired: this program is
				// exactly why compression exists. Not an equivalence bug.
				t.Logf("%s/%s: skipped (state explosion guard): %v", name, m.name, c.err)
				skipped++
				continue
			}
			t.Fatalf("%s/%s: convert: %v", name, m.name, c.err)
		}
		p, err := Compile(c.a, m.code)
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", name, m.name, err)
		}
		res, err := simd.Run(p, simd.Config{N: n, InitialActive: ia, Sink: coverSink{p}})
		if err != nil {
			t.Fatalf("%s/%s: simd run: %v\n%s", name, m.name, err, c.a)
		}
		for pe := 0; pe < n; pe++ {
			for slot := range ref.Mem[pe] {
				if ref.Mem[pe][slot] != res.Mem[pe][slot] {
					t.Fatalf("%s/%s: PE %d slot %d: simd %d != mimd %d",
						name, m.name, pe, slot, res.Mem[pe][slot], ref.Mem[pe][slot])
				}
			}
			if ref.Done[pe] != res.Done[pe] {
				t.Fatalf("%s/%s: PE %d done: simd %v != mimd %v",
					name, m.name, pe, res.Done[pe], ref.Done[pe])
			}
		}
	}
	for _, c := range convs {
		if c.err == nil && c.a.String() != c.fp {
			t.Fatalf("%s: the automaton converted for %s changed while the modes sharing it ran", name, c.mode)
		}
	}
	return skipped
}

func TestEquivalenceListing1(t *testing.T) {
	checkEquivalence(t, "listing1", listing1Run, 7)
}

func TestEquivalenceBarrierReduction(t *testing.T) {
	checkEquivalence(t, "reduction", `
poly int val, sum;
void main()
{
    poly int j;
    val = iproc + 1;
    wait;
    sum = 0;
    for (j = 0; j < nproc; j = j + 1) {
        sum = sum + val[[j]];
    }
    return;
}
`, 8)
}

func TestEquivalenceCallsAndFloats(t *testing.T) {
	checkEquivalence(t, "calls", `
poly float y;
float scale(float v, int k) { return v * k + 0.5; }
int gcd(int a, int b) { if (b == 0) { return a; } return gcd(b, a % b); }
void main()
{
    poly int r;
    r = gcd(iproc + 12, 18);
    y = scale(1.5, r);
    return;
}
`, 6)
}

func TestEquivalenceSpawn(t *testing.T) {
	checkEquivalence(t, "spawn", `
poly int out;
void worker() { out = iproc * 7 + 1; halt; }
void main()
{
    spawn worker();
    spawn worker();
    return;
}
`, 4, 1)
}

// TestEquivalenceRandomPrograms runs 60 generated programs under every
// mode. The uncompressed modes explode on some of them and skip: 90 of
// the 480 runs. More skips fail the test, so a change that makes more
// programs explode shows instead of quietly shrinking coverage.
func TestEquivalenceRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep skipped in -short")
	}
	const maxSkipped = 90
	skipped := 0
	for seed := int64(0); seed < 12; seed++ {
		for _, variant := range []progen.Params{
			{Seed: seed, MaxDepth: 2, MaxStmts: 4},
			{Seed: seed, MaxDepth: 2, MaxStmts: 4, Barriers: true},
			{Seed: seed, MaxDepth: 2, MaxStmts: 4, Floats: true},
			{Seed: seed, MaxDepth: 2, MaxStmts: 4, Calls: true},
			{Seed: seed, MaxDepth: 2, MaxStmts: 4, Barriers: true, Floats: true, Calls: true},
		} {
			src := progen.Source(variant)
			name := fmt.Sprintf("seed%d/b%vf%vc%v", seed, variant.Barriers, variant.Floats, variant.Calls)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic: %v\nsource:\n%s", name, r, src)
					}
				}()
				skipped += checkEquivalence(t, name, src, 5)
			}()
		}
	}
	if skipped > maxSkipped {
		t.Fatalf("%d of %d runs skipped at the state explosion guard, want at most %d", skipped, 60*len(modes), maxSkipped)
	}
}

// TestListing5MPL checks the MPL emission for Listing 4 against the
// structure of the paper's Listing 5: eight labeled meta states,
// guarded stack code, JumpF pc updates, a globalor aggregate, and
// hashed switch dispatch.
func TestListing5MPL(t *testing.T) {
	g := buildGraph(t, listing4)
	a := msc.MustConvert(g, msc.DefaultOptions(false))
	p := MustCompile(a, Options{Hash: true, CSI: true})
	mpl := EmitMPL(p)

	if got := strings.Count(mpl, "ms_"); got < 8 {
		t.Fatalf("MPL has %d ms_ references, want >= 8 meta states:\n%s", got, mpl)
	}
	for _, want := range []string{
		"if (pc & BIT(", // guarded thread code
		"JumpF(",        // conditional pc update
		"apc = globalor(pc);",
		"switch (",
		"exit(0);",
		"goto ms_",
	} {
		if !strings.Contains(mpl, want) {
			t.Fatalf("MPL missing %q:\n%s", want, mpl)
		}
	}
	// The widest state ms_a_b_c exists (three MIMD states merged).
	found := false
	for _, line := range strings.Split(mpl, "\n") {
		if strings.HasSuffix(line, ":") && strings.Count(line, "_") == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no three-state meta label in MPL:\n%s", mpl)
	}
}

func TestHashedDispatchUsedAndExecuted(t *testing.T) {
	g := buildGraph(t, listing1Run)
	a := msc.MustConvert(g, msc.DefaultOptions(false))
	p := MustCompile(a, Options{Hash: true})
	hashed := 0
	for _, mc := range p.Meta {
		if mc.Trans.Hash != nil {
			hashed++
			for _, e := range mc.Trans.Entries {
				w, ok := e.Key.Word()
				if !ok {
					t.Fatalf("key exceeds word")
				}
				if got := mc.Trans.Hash.Table[mc.Trans.Hash.Index(w)]; got != e.To {
					t.Fatalf("hash table maps %s to %d, want %d", e.Key, got, e.To)
				}
			}
		}
	}
	if hashed == 0 {
		t.Fatalf("no hashed multiway branches generated")
	}
	// Execution through the hash tables matches the reference.
	checkEquivalence(t, "hashed", listing1Run, 7)
}

func TestCSIReducesMetaStateCost(t *testing.T) {
	g := buildGraph(t, listing1Run)
	a := msc.MustConvert(g, msc.DefaultOptions(false))
	plain := MustCompile(a, Options{})
	shared := MustCompile(a, Options{CSI: true})
	var plainCost, sharedCost int
	for i := range plain.Meta {
		plainCost += plain.Meta[i].Cost()
		sharedCost += shared.Meta[i].Cost()
	}
	if sharedCost >= plainCost {
		t.Fatalf("CSI static cost %d, plain %d; want reduction", sharedCost, plainCost)
	}
}

func TestCompressedNeedsNoGlobalor(t *testing.T) {
	g := buildGraph(t, listing4)
	a := msc.MustConvert(g, msc.DefaultOptions(true))
	p := MustCompile(a, Options{})
	// §2.5: transitions into compressed portions are unconditional —
	// dispatch is TransGoto everywhere (the exit check is separate).
	for _, mc := range p.Meta {
		if mc.Trans.Kind == simd.TransSwitch {
			t.Fatalf("compressed ms%d uses switch dispatch", mc.ID)
		}
	}
}

func TestProgramStringer(t *testing.T) {
	g := buildGraph(t, listing4)
	p := MustCompile(msc.MustConvert(g, msc.DefaultOptions(false)), Options{})
	s := p.String()
	if !strings.Contains(s, "meta states") {
		t.Fatalf("Program.String = %q", s)
	}
}

func TestOverApproxFallbackRunsCorrectly(t *testing.T) {
	// Many call sites with a tiny MaxRetSubsets force the all-targets
	// fallback in base mode; dispatch must then accept covering
	// supersets and still compute the right answers.
	src := `
poly int r;
int id(int v) { return v + 1; }
void main()
{
    r = id(iproc);
    r = r + id(r);
    r = r + id(r + 2);
    r = r + id(r % 7);
    return;
}
`
	g := buildGraph(t, src)
	opt := msc.DefaultOptions(false)
	opt.MaxRetSubsets = 2
	a, err := msc.Convert(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.OverApprox {
		t.Fatal("expected over-approximation flag")
	}
	p := MustCompile(a, Options{Hash: true})
	if !p.SupersetDispatch {
		t.Fatal("superset dispatch not enabled for over-approximated automaton")
	}
	for _, mc := range p.Meta {
		if mc.Trans.Hash != nil {
			t.Fatal("hash attached despite superset dispatch")
		}
	}
	res, err := simd.Run(p, simd.Config{N: 6, Sink: coverSink{p}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mimdsim.Run(g, mimdsim.Config{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	slot := g.VarSlot["r"]
	for pe := 0; pe < 6; pe++ {
		if res.Mem[pe][slot] != ref.Mem[pe][slot] {
			t.Fatalf("PE %d: %d != %d", pe, res.Mem[pe][slot], ref.Mem[pe][slot])
		}
	}
}

func TestEquivalenceTernaryAndSugar(t *testing.T) {
	checkEquivalence(t, "sugar", `
poly int a, b, m;
poly float f;
void main()
{
    a = iproc % 5;
    b = 7 - a;
    m = a > b ? a : b;
    m += a ? 1 : 2;
    m *= 2;
    m--;
    f = a > 2 ? 1.5 : 0.25;
    a++;
    return;
}
`, 8)
}

func TestEquivalenceDivergentBarrier(t *testing.T) {
	// Only odd PEs reach the barrier; even PEs run to completion. The
	// barrier must release once every still-live PE is waiting (§3.2.4:
	// done PEs contribute no aggregate bits).
	checkEquivalence(t, "divergent-barrier", `
poly int x;
void main()
{
    if (iproc % 2) {
        wait;
        x = 100;
    } else {
        x = iproc;
    }
    x = x + 1;
    return;
}
`, 6)
}

func TestEquivalenceBarrierInLoop(t *testing.T) {
	// The same barrier state is re-entered every iteration; fast PEs
	// that loop around early wait for the stragglers each round.
	checkEquivalence(t, "barrier-loop", `
poly int acc;
void main()
{
    poly int r, i;
    for (r = 0; r < 3; r = r + 1) {
        for (i = 0; i < iproc % 3; i = i + 1) { acc = acc + i; }
        wait;
        acc = acc + 10;
    }
    return;
}
`, 6)
}

func TestMPLMapDispatchAndBarrierComment(t *testing.T) {
	// Without -hash the multiway switch dispatches on the raw aggregate;
	// barrier programs additionally emit the §3.2.4 subtraction.
	g := buildGraph(t, `
void main()
{
    poly int x;
    if (x) {
        do { x = 1; } while (x);
    } else {
        do { x = 2; } while (x);
    }
    wait;
    return;
}
`)
	a := msc.MustConvert(g, msc.DefaultOptions(false))
	p := MustCompile(a, Options{}) // no hash
	mpl := EmitMPL(p)
	for _, want := range []string{"switch (apc)", "case BIT(", "§3.2.4", "BARRIERS"} {
		if !strings.Contains(mpl, want) {
			t.Fatalf("MPL missing %q:\n%s", want, mpl)
		}
	}
}
