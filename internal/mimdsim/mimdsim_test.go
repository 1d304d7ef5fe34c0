package mimdsim

import (
	"strings"
	"testing"

	"msc/internal/cfg"
	"msc/internal/ir"
)

func run(t *testing.T, src string, conf Config) (*cfg.Graph, *Result) {
	t.Helper()
	g := cfg.Simplify(cfg.MustBuild(src))
	if err := cfg.Verify(g); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := Run(g, conf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, g)
	}
	return g, res
}

func TestDivergentLoops(t *testing.T) {
	// The Listing 1 skeleton with terminating loop bodies: PEs diverge at
	// the if, loop different numbers of times, and join at F.
	g, res := run(t, `
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
`, Config{N: 7})
	slot := g.VarSlot["x"]
	for pe := 0; pe < 7; pe++ {
		want := ir.Word(100) // branch-takers count down to 0
		if pe%3 == 0 {
			want = 104 // 0 -> 2 -> 4, then +100
		}
		if got := res.Mem[pe][slot]; got != want {
			t.Errorf("PE %d: x = %d, want %d", pe, got, want)
		}
		if !res.Done[pe] {
			t.Errorf("PE %d not done", pe)
		}
	}
	if res.Time <= 0 || res.Useful <= 0 || res.Blocks <= 0 {
		t.Fatalf("metrics not populated: %+v", res)
	}
}

func TestBarrierReduction(t *testing.T) {
	// Classic SPMD reduction: every PE publishes a value, barriers, then
	// reads every other PE's value via parallel subscripting (§4.1).
	g, res := run(t, `
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
`, Config{N: 8})
	want := ir.Word(8 * 9 / 2)
	slot := g.VarSlot["sum"]
	for pe := 0; pe < 8; pe++ {
		if got := res.Mem[pe][slot]; got != want {
			t.Errorf("PE %d: sum = %d, want %d", pe, got, want)
		}
	}
	if res.Barriers != 1 {
		t.Errorf("barrier episodes = %d, want 1", res.Barriers)
	}
}

func TestBarrierCostCharged(t *testing.T) {
	src := `
void main()
{
    poly int i, x;
    for (i = 0; i < iproc; i = i + 1) { x = x + i; }
    wait;
    return;
}
`
	_, cheap := run(t, src, Config{N: 4, BarrierCost: 1})
	_, costly := run(t, src, Config{N: 4, BarrierCost: 500})
	if costly.Time-cheap.Time != 499 {
		t.Fatalf("barrier cost delta = %d, want 499", costly.Time-cheap.Time)
	}
	// All PEs leave the barrier at the same clock, so they finish together.
	for i := 1; i < 4; i++ {
		if costly.Clocks[i] != costly.Clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", costly.Clocks)
		}
	}
}

func TestTailRecursionGCD(t *testing.T) {
	g, res := run(t, `
poly int r;
int gcd(int a, int b)
{
    if (b == 0) { return a; }
    return gcd(b, a % b);
}
void main()
{
    r = gcd(12 + iproc * 6, 18);
    return;
}
`, Config{N: 4})
	slot := g.VarSlot["r"]
	wants := []ir.Word{6, 18, 6, 6} // gcd(12,18), gcd(18,18), gcd(24,18), gcd(30,18)
	for pe, want := range wants {
		if got := res.Mem[pe][slot]; got != want {
			t.Errorf("PE %d: gcd = %d, want %d", pe, got, want)
		}
	}
}

func TestFunctionCallsAndMainReturn(t *testing.T) {
	g, res := run(t, `
int sq(int v) { return v * v; }
int main()
{
    poly int a;
    a = sq(3) + sq(4);
    return a;
}
`, Config{N: 2})
	slot, ok := g.RetSlot["main"]
	if !ok {
		t.Fatalf("no main return slot")
	}
	for pe := 0; pe < 2; pe++ {
		if got := res.Mem[pe][slot]; got != 25 {
			t.Errorf("PE %d: main returned %d, want 25", pe, got)
		}
	}
}

func TestMonoBroadcast(t *testing.T) {
	g, res := run(t, `
mono int shared;
poly int seen;
void main()
{
    if (iproc == 0) { shared = 42; }
    wait;
    seen = shared;
    return;
}
`, Config{N: 5})
	slot := g.VarSlot["seen"]
	for pe := 0; pe < 5; pe++ {
		if got := res.Mem[pe][slot]; got != 42 {
			t.Errorf("PE %d: seen = %d, want 42", pe, got)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	g, res := run(t, `
poly float y;
void main()
{
    poly int i;
    y = 0.5;
    for (i = 0; i < 4; i = i + 1) { y = y * 2.0; }
    y = y + iproc;
    return;
}
`, Config{N: 3})
	slot := g.VarSlot["y"]
	for pe := 0; pe < 3; pe++ {
		if got := res.Mem[pe][slot].Float(); got != 8.0+float64(pe) {
			t.Errorf("PE %d: y = %g, want %g", pe, got, 8.0+float64(pe))
		}
	}
}

func TestArrays(t *testing.T) {
	g, res := run(t, `
poly int a[5], total;
void main()
{
    poly int i;
    for (i = 0; i < 5; i = i + 1) { a[i] = i * i; }
    total = 0;
    for (i = 0; i < 5; i = i + 1) { total = total + a[i]; }
    return;
}
`, Config{N: 2})
	slot := g.VarSlot["total"]
	if got := res.Mem[0][slot]; got != 30 {
		t.Fatalf("total = %d, want 30", got)
	}
}

func TestSpawnAndHalt(t *testing.T) {
	g, res := run(t, `
poly int r;
void worker() { r = iproc * 10 + 1; halt; }
void main()
{
    spawn worker();
    spawn worker();
    return;
}
`, Config{N: 4, InitialActive: 1})
	slot := g.VarSlot["r"]
	// PE 0 ran main; PEs 1 and 2 were spawned; PE 3 stayed idle.
	if res.Mem[1][slot] != 11 || res.Mem[2][slot] != 21 {
		t.Fatalf("worker results = %d, %d; want 11, 21", res.Mem[1][slot], res.Mem[2][slot])
	}
	if res.Mem[3][slot] != 0 {
		t.Fatalf("idle PE 3 has r = %d, want 0", res.Mem[3][slot])
	}
	if !res.Done[0] || res.Done[1] || res.Done[2] {
		t.Fatalf("done flags = %v, want only PE 0 (halted PEs are idle, not done)", res.Done)
	}
}

func TestSpawnExhaustion(t *testing.T) {
	g := cfg.Simplify(cfg.MustBuild(`
void worker() { halt; }
void main()
{
    spawn worker();
    spawn worker();
    return;
}
`))
	_, err := Run(g, Config{N: 2, InitialActive: 1})
	if err == nil || !strings.Contains(err.Error(), "no free processor") {
		t.Fatalf("err = %v, want spawn exhaustion", err)
	}
}

func TestHaltedPEReusable(t *testing.T) {
	// A halted worker returns its PE to the pool; a later spawn reuses it.
	g, res := run(t, `
poly int count;
void worker() { count = count + 1; halt; }
void main()
{
    spawn worker();
    wait;
    spawn worker();
    return;
}
`, Config{N: 2, InitialActive: 1})
	slot := g.VarSlot["count"]
	if got := res.Mem[1][slot]; got != 2 {
		t.Fatalf("reused PE count = %d, want 2", got)
	}
	_ = res
}

func TestNonTerminatingDetected(t *testing.T) {
	g := cfg.Simplify(cfg.MustBuild(`void main() { poly int x; for (;;) { x = x + 1; } }`))
	_, err := Run(g, Config{N: 1, MaxBlocks: 100})
	if err == nil || !strings.Contains(err.Error(), "non-terminating") {
		t.Fatalf("err = %v, want non-terminating guard", err)
	}
}

func TestBadConfig(t *testing.T) {
	g := cfg.Simplify(cfg.MustBuild(`void main() { return; }`))
	if _, err := Run(g, Config{N: 0}); err == nil {
		t.Fatalf("N=0 accepted")
	}
	if _, err := Run(g, Config{N: 2, InitialActive: 3}); err == nil {
		t.Fatalf("InitialActive > N accepted")
	}
}

func TestShortCircuitSemantics(t *testing.T) {
	// f() must not execute when the left side of && is false: g stays 0.
	g, res := run(t, `
poly int trace;
int f() { trace = trace + 1; return 1; }
void main()
{
    poly int c;
    c = 0 && f();
    c = c + (1 && f());
    c = c + (1 || f());
    return;
}
`, Config{N: 1})
	if got := res.Mem[0][g.VarSlot["trace"]]; got != 1 {
		t.Fatalf("f executed %d times, want 1 (short-circuit)", got)
	}
}

func TestRemoteWrite(t *testing.T) {
	// Each PE writes into its right neighbor's slot (wrapping), then all
	// barrier and read.
	g, res := run(t, `
poly int inbox, got;
void main()
{
    inbox[[iproc + 1]] = iproc;
    wait;
    got = inbox;
    return;
}
`, Config{N: 4})
	slot := g.VarSlot["got"]
	wants := []ir.Word{3, 0, 1, 2}
	for pe, want := range wants {
		if got := res.Mem[pe][slot]; got != want {
			t.Errorf("PE %d: got = %d, want %d", pe, got, want)
		}
	}
}

func TestIndexOutOfRange(t *testing.T) {
	g := cfg.Simplify(cfg.MustBuild(`
poly int a[3];
void main()
{
    poly int i;
    i = 10;
    a[i] = 1;
    return;
}
`))
	const want = "mimdsim: PE 0 state 0: memory address 10 out of range [0,5)"
	if _, err := Run(g, Config{N: 1}); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestStackAndOpcodeFaults(t *testing.T) {
	// Each fault is prepended to the entry block of an empty main.
	for _, tc := range []struct {
		in   ir.Instr
		want string
	}{
		{ir.Instr{Op: ir.Pop, Imm: 1}, "mimdsim: PE 0 state 0: evaluation stack underflow"},
		{ir.Instr{Op: ir.Op(250)}, "mimdsim: PE 0 state 0: unknown opcode op(250)"},
	} {
		g := cfg.Simplify(cfg.MustBuild(`void main() { return; }`))
		b := g.Block(g.Entry)
		b.Code = append([]ir.Instr{tc.in}, b.Code...)
		if _, err := Run(g, Config{N: 2}); err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestMonoStoreRaceConvention(t *testing.T) {
	// All PEs store different values to a mono variable in the same
	// phase: the documented convention is last-writer (highest PE in
	// phase order) wins.
	g := cfg.Simplify(cfg.MustBuild(`
mono int m;
void main()
{
    m = iproc;
    return;
}
`))
	res, err := Run(g, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Mem[0][g.VarSlot["m"]]; got != 3 {
		t.Fatalf("mono race winner = %d, want 3 (highest PE)", got)
	}
}

func TestBarrierWithHaltedPEs(t *testing.T) {
	// Spawned workers halt; the remaining PEs' barrier must release
	// without counting the halted ones.
	g := cfg.Simplify(cfg.MustBuild(`
poly int done;
void worker() { halt; }
void main()
{
    spawn worker();
    wait;
    done = 1;
    return;
}
`))
	res, err := Run(g, Config{N: 3, InitialActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem[0][g.VarSlot["done"]] != 1 {
		t.Fatalf("barrier never released")
	}
}

func TestUsefulVersusTime(t *testing.T) {
	g := cfg.Simplify(cfg.MustBuild(`
void main()
{
    poly int i, s;
    for (i = 0; i < iproc + 1; i = i + 1) { s = s + i; }
    return;
}
`))
	res, err := Run(g, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Useful sums all PEs' work; Time is the slowest PE's clock, so
	// Useful > Time on divergent work with N > 1.
	if res.Useful <= res.Time {
		t.Fatalf("useful %d <= makespan %d on divergent work", res.Useful, res.Time)
	}
	// Clocks are non-decreasing in iproc for this workload.
	for pe := 1; pe < 4; pe++ {
		if res.Clocks[pe] < res.Clocks[pe-1] {
			t.Fatalf("clock[%d]=%d < clock[%d]=%d", pe, res.Clocks[pe], pe-1, res.Clocks[pe-1])
		}
	}
}

func TestBlockCounters(t *testing.T) {
	g, res := run(t, `
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
`, Config{N: 7})

	if len(res.BlockVisits) != len(g.Blocks) || len(res.BlockCycles) != len(g.Blocks) {
		t.Fatalf("counter lengths %d/%d, want %d", len(res.BlockVisits), len(res.BlockCycles), len(g.Blocks))
	}
	var visits, cycles int64
	for id := range res.BlockVisits {
		visits += res.BlockVisits[id]
		cycles += res.BlockCycles[id]
		if res.BlockVisits[id] == 0 && res.BlockCycles[id] != 0 {
			t.Errorf("state %d has cycles without visits", id)
		}
	}
	if visits != res.Blocks {
		t.Errorf("sum(BlockVisits) = %d, want Blocks = %d", visits, res.Blocks)
	}
	if cycles != res.Useful {
		t.Errorf("sum(BlockCycles) = %d, want Useful = %d", cycles, res.Useful)
	}
	if res.BlockVisits[g.Entry] != 7 {
		t.Errorf("entry visits = %d, want 7", res.BlockVisits[g.Entry])
	}
}
