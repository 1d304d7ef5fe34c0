package interp

import (
	"strings"
	"testing"

	"msc/internal/cfg"
	"msc/internal/ir"
	"msc/internal/mimdsim"
	"msc/internal/progen"
)

func buildGraph(t testing.TB, src string) *cfg.Graph {
	t.Helper()
	g := cfg.Simplify(cfg.MustBuild(src))
	if err := cfg.Verify(g); err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g
}

// checkAgainstReference interprets src and requires bit-identical memory
// with the MIMD reference machine.
func checkAgainstReference(t *testing.T, name, src string, n, initialActive int) *Result {
	t.Helper()
	g := buildGraph(t, src)
	ref, err := mimdsim.Run(g, mimdsim.Config{N: n, InitialActive: initialActive})
	if err != nil {
		t.Fatalf("%s: mimdsim: %v", name, err)
	}
	res, err := Run(g, Config{N: n, InitialActive: initialActive})
	if err != nil {
		t.Fatalf("%s: interp: %v", name, err)
	}
	for pe := 0; pe < n; pe++ {
		for slot := range ref.Mem[pe] {
			if ref.Mem[pe][slot] != res.Mem[pe][slot] {
				t.Fatalf("%s: PE %d slot %d: interp %d != mimd %d",
					name, pe, slot, res.Mem[pe][slot], ref.Mem[pe][slot])
			}
		}
		if ref.Done[pe] != res.Done[pe] {
			t.Fatalf("%s: PE %d done mismatch", name, pe)
		}
	}
	return res
}

func TestInterpListing1(t *testing.T) {
	res := checkAgainstReference(t, "listing1", `
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
`, 7, 0)
	// §1.1 claims: interpretation overhead and per-PE program memory.
	if res.Overhead <= 0 || res.Overhead >= res.Time {
		t.Fatalf("overhead = %d of %d, want strictly inside", res.Overhead, res.Time)
	}
	if res.ProgWordsPerPE <= 0 {
		t.Fatalf("ProgWordsPerPE = %d, want > 0", res.ProgWordsPerPE)
	}
	if res.Rounds <= 0 || res.TypesPerRound < res.Rounds {
		t.Fatalf("rounds=%d typesPerRound=%d", res.Rounds, res.TypesPerRound)
	}
}

func TestInterpSerializationOverhead(t *testing.T) {
	// Divergent PEs executing different opcodes in the same round force
	// the interpreter to serialize: mean types per round must exceed 1.
	res := checkAgainstReference(t, "divergent", `
poly int x;
poly float f;
void main()
{
    if (iproc % 2) {
        x = x * 3 + iproc;
        x = x % 97;
    } else {
        f = 1.5;
        f = f * 2.5;
        x = f;
    }
    return;
}
`, 8, 0)
	if mean := float64(res.TypesPerRound) / float64(res.Rounds); mean <= 1.0 {
		t.Fatalf("mean instruction types per round = %.2f, want > 1 (serialization)", mean)
	}
}

func TestInterpBarriersAndComm(t *testing.T) {
	checkAgainstReference(t, "reduction", `
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
`, 6, 0)
}

func TestInterpSequentialBarriers(t *testing.T) {
	checkAgainstReference(t, "two-barriers", `
poly int a;
void main()
{
    a = iproc;
    wait;
    a = a + 1;
    wait;
    a = a * 2;
    return;
}
`, 4, 0)
}

func TestInterpCallsAndRecursion(t *testing.T) {
	checkAgainstReference(t, "gcd", `
poly int r;
int gcd(int a, int b) { if (b == 0) { return a; } return gcd(b, a % b); }
void main()
{
    r = gcd(iproc + 12, 18);
    return;
}
`, 5, 0)
}

func TestInterpSpawn(t *testing.T) {
	checkAgainstReference(t, "spawn", `
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

func TestInterpRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("random sweep skipped in -short")
	}
	for seed := int64(100); seed < 120; seed++ {
		src := progen.Source(progen.Params{
			Seed: seed, Barriers: true, Floats: true, Calls: true,
			MaxDepth: 2, MaxStmts: 4,
		})
		checkAgainstReference(t, src[:0], src, 5, 0)
	}
}

func TestInterpGuards(t *testing.T) {
	g := buildGraph(t, `void main() { poly int x; for (;;) { x = x + 1; } }`)
	if _, err := Run(g, Config{N: 1, MaxRounds: 50}); err == nil ||
		!strings.Contains(err.Error(), "non-terminating") {
		t.Fatalf("non-termination guard missing")
	}
	if _, err := Run(g, Config{N: 0}); err == nil {
		t.Fatalf("N=0 accepted")
	}
	if _, err := Run(g, Config{N: 1, InitialActive: 5}); err == nil {
		t.Fatalf("InitialActive > N accepted")
	}
}

func TestInterpSpawnExhaustion(t *testing.T) {
	g := buildGraph(t, `
void worker() { halt; }
void main() { spawn worker(); return; }
`)
	// Width 1: the only PE runs main, so no processor is ever free.
	if _, err := Run(g, Config{N: 1}); err == nil ||
		!strings.Contains(err.Error(), "no free processor") {
		t.Fatalf("spawn exhaustion not detected")
	}
}

func TestInterpArraysFloatsMono(t *testing.T) {
	checkAgainstReference(t, "mixed", `
mono int scale;
poly int a[6], total;
poly float acc;
void main()
{
    poly int i;
    if (iproc == 0) { scale = 3; }
    wait;
    for (i = 0; i < 6; i = i + 1) { a[i] = i * scale; }
    total = 0;
    acc = 0.5;
    for (i = 0; i < 6; i = i + 1) {
        total = total + a[i];
        acc = acc * 1.5;
    }
    total = total + acc;
    return;
}
`, 4, 0)
}

func TestInterpValueDependentDivergence(t *testing.T) {
	res := checkAgainstReference(t, "primes", `
poly int count;
int isprime(int n)
{
    poly int d;
    if (n < 2) { return 0; }
    for (d = 2; d * d <= n; d = d + 1) {
        if (n % d == 0) { return 0; }
    }
    return 1;
}
void main()
{
    poly int k;
    count = 0;
    for (k = iproc * 10; k < iproc * 10 + 10; k = k + 1) {
        count = count + isprime(k);
    }
    return;
}
`, 6, 0)
	if res.Time <= res.Overhead {
		t.Fatalf("time %d <= overhead %d", res.Time, res.Overhead)
	}
}

func TestCounters(t *testing.T) {
	src := `
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
	g := buildGraph(t, src)
	res, err := Run(g, Config{N: 7})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	if len(res.BlockVisits) != len(g.Blocks) {
		t.Fatalf("BlockVisits len %d, want %d", len(res.BlockVisits), len(g.Blocks))
	}
	if res.BlockVisits[g.Entry] < 7 {
		t.Errorf("entry visits = %d, want >= 7 (all PEs start there)", res.BlockVisits[g.Entry])
	}
	var visits int64
	for _, v := range res.BlockVisits {
		visits += v
	}
	if visits < 7 {
		t.Errorf("total block visits = %d, want >= 7", visits)
	}

	if len(res.PEHist) != 8 {
		t.Fatalf("PEHist len %d, want N+1=8", len(res.PEHist))
	}
	if res.PEHist[0] != 0 {
		t.Errorf("PEHist[0] = %d, want 0 (empty dispatch groups never run)", res.PEHist[0])
	}
	// Every serialized dispatch group is one histogram entry.
	var groups int64
	for _, v := range res.PEHist {
		groups += v
	}
	if groups != res.TypesPerRound {
		t.Errorf("sum(PEHist) = %d, want TypesPerRound = %d", groups, res.TypesPerRound)
	}
	// The divergent program must serialize at least once: some group
	// smaller than the full machine width.
	var partial int64
	for k := 1; k < 7; k++ {
		partial += res.PEHist[k]
	}
	if partial == 0 {
		t.Errorf("PEHist has no partial groups; divergent program should serialize")
	}
}

func TestInterpFaultText(t *testing.T) {
	// The stack and opcode faults are prepended to the entry block of an
	// empty main; the indexed store's fault is the program's own.
	for _, tc := range []struct {
		src    string
		prefix []ir.Instr
		want   string
	}{
		{`
poly int a[3];
void main()
{
    poly int i;
    i = 10;
    a[i] = 1;
    return;
}
`, nil, "interp: PE 0 state 0 idx 6: memory address 10 out of range [0,5)"},
		{`void main() { return; }`, []ir.Instr{{Op: ir.Pop, Imm: 1}}, "interp: PE 0 state 0 idx 0: evaluation stack underflow"},
		{`void main() { return; }`, []ir.Instr{{Op: ir.Op(250)}}, "interp: PE 0 state 0 idx 0: unknown opcode op(250)"},
	} {
		g := buildGraph(t, tc.src)
		b := g.Block(g.Entry)
		b.Code = append(tc.prefix, b.Code...)
		if _, err := Run(g, Config{N: 2}); err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
}
