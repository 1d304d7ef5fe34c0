package msc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"msc"
	"msc/internal/progen"
)

// wireKinds is the status table of docs/SERVICE.md: the error kinds a
// non-200 status may carry. 500 ("internal") is absent on purpose: no
// request body may reach it.
var wireKinds = map[int][]string{
	400: {"invalid"},
	413: {"too_large"},
	422: {"step_limit"},
	429: {"budget", "overloaded"},
	503: {"canceled", "draining"},
}

// maxFuzzWords bounds the program memory a fuzzed body may declare, and
// maxFuzzPEBytes the PE memory its run may ask for. Nothing in the
// service bounds an array's length (up to 2^31 words) and the analyses
// and every engine size their storage from it, so without the bound a
// mutated digit could ask the fuzzing machine for gigabytes.
const (
	maxFuzzWords   = 4096
	maxFuzzPEBytes = 64 << 20
)

var intLiteral = regexp.MustCompile(`[0-9]+`)

// withinFuzzMemory reports whether a body stays inside the bounds
// above. The words a source can declare are at most its length plus
// the sum of its integer literals (array lengths are literals).
func withinFuzzMemory(body []byte) bool {
	var req msc.CompileRequest
	if json.Unmarshal(body, &req) != nil {
		return true // refused before any compile
	}
	words := int64(len(req.Source))
	for _, lit := range intLiteral.FindAllString(req.Source, -1) {
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil || v > maxFuzzWords {
			return false
		}
		words += v
	}
	if words > maxFuzzWords {
		return false
	}
	if req.Run == nil {
		return true
	}
	n := int64(req.Run.N)
	if n <= 0 {
		n = 16 // the service's default width
	}
	return n*words*8 <= maxFuzzPEBytes
}

// FuzzWireRequest feeds fuzzed POST /compile bodies to an in-process
// service with one worker, a 64 KiB body cap and tight default limits,
// and checks the wire contract: the status is one docs/SERVICE.md
// lists and never 500, a non-200 body is an ErrorBody whose kind
// matches its status, and a 200 body is a CompileResponse.
func FuzzWireRequest(f *testing.F) {
	f.Add([]byte(`{
  "source": "void main() { ... }",
  "config": {"compress": true, "time_split": true, "csi": true},
  "limits": {"deadline_ms": 2000, "max_states": 10000},
  "emit": ["mpl", "dot"],
  "run": {"engine": "simd", "n": 16, "max_steps": 100000}
}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`"x"`))
	// mscload's three request shapes: valid, unparsable, over budget.
	src := progen.Source(progen.Params{Seed: 1, Barriers: true, MaxDepth: 3, MaxStmts: 5, Vars: 4, LoopTrip: 3})
	for _, req := range []msc.CompileRequest{
		{Source: src},
		{Source: strings.Replace(src, "{", "(", 1)},
		{Source: src, Limits: &msc.WireLimits{MaxStates: 1}},
		{Source: src, Run: &msc.WireRun{Engine: "mimd", N: 4, MaxSteps: 1000}},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	svc := msc.NewCompileService(msc.ServiceConfig{
		Workers:        1,
		MaxSourceBytes: 64 << 10,
		DefaultLimits: msc.Limits{
			Deadline:         250 * time.Millisecond,
			MaxStates:        1024,
			MaxCSICandidates: 100000,
		},
	})
	f.Cleanup(func() { svc.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		if !withinFuzzMemory(body) {
			return
		}
		// The compile deadline does not cover a requested run: a
		// non-terminating program may run to the step bound. Give up on
		// the request the way a client would.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest("POST", "/compile", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, req)
		if ctx.Err() != nil {
			return // the handler writes nothing to a client that left
		}
		if w.Code == 200 {
			var resp msc.CompileResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not a CompileResponse (%v): %s", err, w.Body.String())
			}
			return
		}
		kinds, ok := wireKinds[w.Code]
		if !ok {
			t.Fatalf("status %d is not in the service's table; body %s", w.Code, w.Body.String())
		}
		var eb msc.ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d body is not an ErrorBody (%v): %s", w.Code, err, w.Body.String())
		}
		for _, k := range kinds {
			if eb.Error == k {
				return
			}
		}
		t.Fatalf("status %d carries kind %q, want one of %v: %s", w.Code, eb.Error, kinds, w.Body.String())
	})
}
