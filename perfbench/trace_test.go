package main

import (
	"math"
	"testing"
	"time"
)

func op(id, start, end int64, seq int) spanRec {
	return spanRec{ID: id, Name: "op", Start: start, Dur: end - start, Attrs: map[string]any{"op": seq}}
}

func child(id, parent int64, name string, start, end int64) spanRec {
	return spanRec{ID: id, Parent: parent, Name: name, Start: start, Dur: end - start}
}

// tree is two ops and one call timed outside any op:
//
//	op 1 [0,100]:   mimdc.parse [10,30] ⊃ cfg.build [12,18]
//	                msc.convert [20,50] (overlaps parse)
//	                codegen.compile [90,120] (runs past the op)
//	op 2 [200,260]: simd.run [200,260]
//	simd.run [300,340], a root span with no op
func tree() []spanRec {
	return []spanRec{
		op(1, 0, 100, 0),
		child(2, 1, "mimdc.parse", 10, 30),
		child(3, 2, "cfg.build", 12, 18),
		child(4, 1, "msc.convert", 20, 50),
		child(5, 1, "codegen.compile", 90, 120),
		op(6, 200, 260, 1),
		child(7, 6, "simd.run", 200, 260),
		{ID: 8, Name: "simd.run", Start: 300, Dur: 40},
	}
}

func TestSelfTimeSubtractsCoveredIntervalOnce(t *testing.T) {
	self := selfTimes(tree())
	want := map[int64]int64{
		1: 100 - 40 - 10, // children cover [10,50] and [90,100]
		2: 20 - 6,
		3: 6,
		4: 30,
		5: 30, // its own duration, even past the parent's end
		6: 0,
		7: 60,
		8: 40,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestUnattributedFracIsOpSelfTimeOverOpWall(t *testing.T) {
	lt := analyze(tree())
	if lt.ops != 2 {
		t.Fatalf("ops = %d, want 2 (root spans without an op are not ops)", lt.ops)
	}
	if lt.opWall != 160 || lt.unattributed != 50 {
		t.Fatalf("op wall %d unattributed %d, want 160 and 50", lt.opWall, lt.unattributed)
	}
	if got := lt.unattributedFrac(); math.Abs(got-50.0/160) > 1e-12 {
		t.Fatalf("unattributed_frac = %g, want %g", got, 50.0/160)
	}
}

func TestPerOpSumsLayerSelfTimeOverOps(t *testing.T) {
	lt := analyze(tree())
	ns := func(ms float64) int64 { return int64(math.Round(ms * float64(time.Millisecond))) }
	for _, c := range []struct {
		name string
		want int64 // total self ns over both ops
	}{
		{"mimdc.parse", 14},
		{"cfg.build", 6},
		{"msc.convert", 30},
		{"codegen.compile", 30},
		{"simd.run", 100}, // the op's call and the op-less check run
	} {
		if got := ns(lt.perOp(c.name)); got != c.want/2 {
			t.Errorf("perOp(%q) = %d ns per op, want %d", c.name, got, c.want/2)
		}
	}
	if got := lt.mean("simd.run"); got != ms(50) {
		t.Errorf("mean simd.run = %g ms, want the mean of 60 and 40 ns", got)
	}
}

func TestTracerRoundTripsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.opSpan(3)
	tr.call(root, "msc.check", func() { time.Sleep(time.Millisecond) })
	root.End()
	tr.call(nil, "mimdsim.run", func() {})
	spans, err := tr.spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("read %d spans, want 3", len(spans))
	}
	lt := analyze(spans)
	if lt.ops != 1 || lt.self["msc.check"] < time.Millisecond || lt.self["mimdsim.run"] < 0 {
		t.Fatalf("unexpected analysis %+v", lt)
	}
	if got := lt.opWall - lt.unattributed; got != lt.self["msc.check"] {
		t.Fatalf("op wall minus unattributed = %v, want the child's self time %v", got, lt.self["msc.check"])
	}
}
