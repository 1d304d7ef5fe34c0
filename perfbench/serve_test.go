package main

import "testing"

func TestServeExpectationTable(t *testing.T) {
	w := want{meta: 4, cycles: 597}
	for _, c := range []struct {
		class  serveClass
		status int
		kind   string
		meta   int
		cycles int64
		ok     bool
	}{
		{classHit, 200, "", 4, 0, true},
		{classHit, 200, "", 5, 0, false}, // a hit must reproduce the compile
		{classHit, 500, "internal", 0, 0, false},
		{classHit, 429, "overloaded", 0, 0, false}, // admission never queues
		{classFresh, 200, "", 4, 0, true},
		{classFresh, 400, "invalid", 0, 0, false},
		{classRun, 200, "", 4, 597, true},
		{classRun, 200, "", 4, 598, false},
		{classRun, 422, "step_limit", 0, 0, false},
		{classInvalid, 400, "invalid", 0, 0, true},
		{classInvalid, 400, "too_large", 0, 0, false},
		{classInvalid, 200, "", 4, 0, false},
		{classBudget, 429, "budget", 0, 0, true},
		{classBudget, 429, "overloaded", 0, 0, false},
		{classBudget, 200, "", 1, 0, true}, // fits in one meta state
		{classBudget, 200, "", 2, 0, false},
	} {
		err := expect(c.class, c.status, c.kind, c.meta, c.cycles, w)
		if (err == nil) != c.ok {
			t.Errorf("%s status %d kind %q meta %d cycles %d: err = %v, want ok = %v",
				classNames[c.class], c.status, c.kind, c.meta, c.cycles, err, c.ok)
		}
	}
}
