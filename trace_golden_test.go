package msc_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msc"
	"msc/internal/obs"
)

// The golden trace corpus was captured from the pre-sink Fprintf
// implementation; the sink-based trace layer must reproduce it
// byte-for-byte. Regenerate (only on a deliberate format change) by
// deleting the .golden files and running with -update.
var update = os.Getenv("UPDATE_TRACE_GOLDEN") != ""

var goldenCases = []struct {
	name   string
	source string
	conf   msc.Config
	n      int
	active int
}{
	{
		name: "base",
		source: `
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
`,
		conf: msc.Config{},
		n:    6,
	},
	{
		name: "default",
		source: `
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
`,
		conf: msc.DefaultConfig(),
		n:    6,
	},
	{
		name: "barrier",
		source: `
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
`,
		conf: msc.DefaultConfig(),
		n:    4,
	},
	{
		name: "farm",
		source: `
poly int result;
void worker()
{
    poly int k;
    result = 0;
    for (k = 0; k < iproc + 2; k = k + 1) {
        result = result + k * k;
    }
    halt;
}
void main()
{
    spawn worker();
    spawn worker();
    return;
}
`,
		conf:   msc.Config{Compress: true},
		n:      6,
		active: 1,
	},
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (set UPDATE_TRACE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTraceTextGolden locks the human-readable trace and timeline
// formats: the obs.TextSink-based implementation must match the output
// of the original Fprintf writers exactly.
func TestTraceTextGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := msc.Compile(tc.source, tc.conf)
			if err != nil {
				t.Fatal(err)
			}
			var trace, timeline bytes.Buffer
			_, err = c.RunSIMD(msc.RunConfig{
				N: tc.n, InitialActive: tc.active,
				Sink: &obs.TextSink{Trace: &trace, Timeline: &timeline},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "trace", "trace_"+tc.name+".golden"), trace.Bytes())
			checkGolden(t, filepath.Join("testdata", "trace", "timeline_"+tc.name+".golden"), timeline.Bytes())
		})
	}
}

// TestTraceSinksAgree runs the same execution once with a text trace
// sink and once with a JSONL sink, and checks the streams describe the same
// events: same count, same kinds, same meta-state sequence.
func TestTraceSinksAgree(t *testing.T) {
	tc := goldenCases[0]
	c, err := msc.Compile(tc.source, tc.conf)
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if _, err := c.RunSIMD(msc.RunConfig{N: tc.n, Sink: &obs.TextSink{Trace: &text}}); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if _, err := c.RunSIMD(msc.RunConfig{N: tc.n, Sink: &obs.JSONLSink{W: &jsonl}}); err != nil {
		t.Fatal(err)
	}

	textLines := strings.Split(strings.TrimRight(text.String(), "\n"), "\n")
	var metaEvents []map[string]any
	for _, line := range strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if e["kind"] == "meta" || e["kind"] == "exit" {
			metaEvents = append(metaEvents, e)
		}
	}
	if len(metaEvents) != len(textLines) {
		t.Fatalf("JSONL has %d meta/exit events, text has %d lines", len(metaEvents), len(textLines))
	}
	for i, e := range metaEvents {
		ms := int(e["meta"].(float64))
		if !strings.Contains(textLines[i], "ms"+itoa(ms)) {
			t.Errorf("event %d: JSONL meta %d not in text line %q", i, ms, textLines[i])
		}
	}
	last := metaEvents[len(metaEvents)-1]
	if last["kind"] != "exit" {
		t.Errorf("final event kind = %v, want exit", last["kind"])
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
