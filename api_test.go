package msc_test

import (
	"strings"
	"testing"

	"msc"
	"msc/internal/harness"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

func TestCompilePipeline(t *testing.T) {
	c, err := msc.Compile(harness.Divergent, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.AST == nil || c.Graph == nil || c.Automaton == nil || c.Program == nil {
		t.Fatal("pipeline stages missing")
	}
	if c.MIMDStates() <= 0 || c.MetaStates() <= 0 {
		t.Fatal("no states")
	}
	if _, ok := c.Slot("x"); !ok {
		t.Fatal("Slot lookup failed")
	}
	if _, ok := c.Slot("nonexistent"); ok {
		t.Fatal("Slot invented a variable")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"void main( {", "parse"},
		{"void main() { x = 1; }", "analyze"},
		{"void f() {}", "no main"},
	}
	for _, c := range cases {
		_, err := msc.Compile(c.src, msc.Config{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic on bad source")
		}
	}()
	msc.MustCompile("@@", msc.Config{})
}

func TestArtifactEmission(t *testing.T) {
	c := msc.MustCompile(harness.Listing4, msc.Config{CSI: true, Hash: true})
	if !strings.Contains(c.MPL(), "globalor") {
		t.Error("MPL output missing globalor")
	}
	if !strings.Contains(c.DotStateGraph("t"), "digraph") {
		t.Error("state graph dot broken")
	}
	if !strings.Contains(c.DotAutomaton("t"), "digraph") {
		t.Error("automaton dot broken")
	}
}

func TestConfigKnobsReachPipeline(t *testing.T) {
	base := msc.MustCompile(harness.Listing4, msc.Config{})
	comp := msc.MustCompile(harness.Listing4, msc.Config{Compress: true})
	if !(comp.MetaStates() < base.MetaStates()) {
		t.Errorf("compression knob ineffective: %d vs %d", comp.MetaStates(), base.MetaStates())
	}
	split := msc.MustCompile(harness.Imbalance(30), msc.Config{TimeSplit: true})
	if split.Automaton.Splits == 0 {
		t.Error("time-split knob ineffective")
	}
	if _, err := msc.Compile(harness.SeqLoops(8, false), msc.Config{MaxStates: 100}); err == nil {
		t.Error("MaxStates knob ineffective")
	}
}

func TestThreeEnginesAgree(t *testing.T) {
	for _, wl := range harness.Suite() {
		c, err := msc.Compile(wl.Source, msc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		rc := msc.RunConfig{N: wl.Width, InitialActive: wl.InitialActive}
		mimd, err := c.RunMIMD(rc)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		in, err := c.RunInterp(rc)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		sd, err := c.RunSIMD(rc)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for pe := 0; pe < wl.Width; pe++ {
			for slot := range mimd.Mem[pe] {
				if mimd.Mem[pe][slot] != in.Mem[pe][slot] || mimd.Mem[pe][slot] != sd.Mem[pe][slot] {
					t.Fatalf("%s: engines disagree at PE %d slot %d", wl.Name, pe, slot)
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		conf msc.Config
		want string // substring of the error; "" means valid
	}{
		{"default", msc.Config{}, ""},
		{"full", msc.DefaultConfig(), ""},
		{"negative delta", msc.Config{SplitDelta: -1}, "SplitDelta"},
		{"negative percent", msc.Config{SplitPercent: -5}, "SplitPercent"},
		{"percent over 100", msc.Config{SplitPercent: 101}, "SplitPercent"},
		{"negative max states", msc.Config{MaxStates: -1}, "MaxStates"},
	}
	for _, tc := range cases {
		err := tc.conf.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %s", tc.name, err, tc.want)
		}
		// Compile must reject the same configuration up front.
		if _, cerr := msc.Compile(harness.Divergent, tc.conf); cerr == nil {
			t.Errorf("%s: Compile accepted invalid config", tc.name)
		}
	}
}

func TestRunConfigValidate(t *testing.T) {
	c, err := msc.Compile(harness.Divergent, msc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []msc.RunConfig{
		{N: 0},
		{N: -4},
		{N: 8, InitialActive: -1},
		{N: 8, InitialActive: 9},
	}
	for _, rc := range bad {
		if _, err := c.RunSIMD(rc); err == nil {
			t.Errorf("RunSIMD accepted %+v", rc)
		}
		if _, err := c.RunMIMD(rc); err == nil {
			t.Errorf("RunMIMD accepted %+v", rc)
		}
		if _, err := c.RunInterp(rc); err == nil {
			t.Errorf("RunInterp accepted %+v", rc)
		}
	}
}

func TestCompileStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := msc.Compile(harness.Divergent, msc.Config{Compress: true, CSI: true, Hash: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats
	if s == nil {
		t.Fatal("Stats not populated")
	}
	if s.TokensParsed <= 0 {
		t.Errorf("TokensParsed = %d, want > 0", s.TokensParsed)
	}
	if s.BlocksBeforeSimplify < s.BlocksAfterSimplify || s.BlocksAfterSimplify <= 0 {
		t.Errorf("block counts %d -> %d implausible", s.BlocksBeforeSimplify, s.BlocksAfterSimplify)
	}
	if s.MetaStates != int64(c.MetaStates()) {
		t.Errorf("MetaStates = %d, want %d", s.MetaStates, c.MetaStates())
	}
	if s.MetaExplored < s.MetaStates {
		t.Errorf("MetaExplored %d < MetaStates %d", s.MetaExplored, s.MetaStates)
	}
	if len(s.PhaseWall) != 8 {
		t.Errorf("got %d phases, want 8", len(s.PhaseWall))
	}
	// The registry receives the same counters.
	if got := reg.Counter(obs.CounterMetaStates, "").Value(); got != s.MetaStates {
		t.Errorf("registry meta_states = %d, want %d", got, s.MetaStates)
	}
}

// TestProfileCycleAttribution locks the acceptance invariant: every
// cycle of a run is attributed to exactly one meta state.
func TestProfileCycleAttribution(t *testing.T) {
	for _, wl := range harness.Suite() {
		c, err := msc.Compile(wl.Source, msc.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		res, err := c.RunSIMD(msc.RunConfig{N: wl.Width, InitialActive: wl.InitialActive})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var total, body int64
		var visits int64
		for i := range res.MetaStats {
			total += res.MetaStats[i].Cycles
			body += res.MetaStats[i].BodyCycles
			visits += res.MetaStats[i].Visits
		}
		if total != res.Time {
			t.Errorf("%s: attributed cycles %d != Time %d", wl.Name, total, res.Time)
		}
		if body != res.BodyCycles {
			t.Errorf("%s: attributed body cycles %d != BodyCycles %d", wl.Name, body, res.BodyCycles)
		}
		if visits != res.MetaExecs {
			t.Errorf("%s: attributed visits %d != MetaExecs %d", wl.Name, visits, res.MetaExecs)
		}
		var hist int64
		for _, v := range res.PEHist {
			hist += v
		}
		if hist != res.BodyCycles {
			t.Errorf("%s: PEHist mass %d != BodyCycles %d", wl.Name, hist, res.BodyCycles)
		}
		dot := c.DotProfile(wl.Name, res)
		if !strings.Contains(dot, "fillcolor=") {
			t.Errorf("%s: DotProfile has no heat fills", wl.Name)
		}
	}
}
