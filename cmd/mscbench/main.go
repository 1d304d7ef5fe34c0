// Command mscbench regenerates every evaluation artifact of the paper:
// Figures 1-6, Listing 5, and the quantitative claims (state-space
// explosion, utilization vs. imbalance, interpretation overhead, hashed
// multiway branches, CSI savings, restricted process creation, implicit
// synchronization). Each experiment asserts its own expected shape and
// the command fails loudly if any reproduction drifts.
//
// Usage:
//
//	mscbench                 run everything, report to stdout
//	mscbench -run E3         run one experiment
//	mscbench -o EXPERIMENTS.md -header
//	                         write the markdown report to a file with
//	                         the standard preamble
//	mscbench -pprof :6060    serve net/http/pprof and expvar while the
//	                         experiments run
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"msc/internal/harness"
	"msc/internal/obs"
)

const preamble = `# EXPERIMENTS — paper vs. measured

Every figure and listing in "Meta-State Conversion" (Dietz, TR-EE 93-6 /
ICPP 1993) plus each quantitative claim in the text, regenerated by
` + "`go run ./cmd/mscbench -o EXPERIMENTS.md -header`" + ` (also exercised by
` + "`go test ./internal/harness`" + ` and the root benchmarks). The substrate
is this repository's MasPar-flavored SIMD virtual machine, so absolute
cycle counts are model numbers; the shapes — who wins, by what factor,
where the state counts land — are the reproduction targets, and each
experiment asserts them.

`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mscbench:", err)
		os.Exit(1)
	}
}

// run is the testable driver body.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mscbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only      = fs.String("run", "", "run a single experiment by ID (e.g. F2, E3, A1)")
		out       = fs.String("o", "", "write the report to a file instead of stdout")
		header    = fs.Bool("header", false, "prepend the EXPERIMENTS.md preamble")
		ablations = fs.Bool("ablations", true, "include the design-choice ablation studies")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		srv, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (expvar at /debug/vars)\n", srv.Addr())
	}

	dst, closeDst := stdout, func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		dst, closeDst = f, f.Close
	}
	// Buffering makes a failed write visible: bufio keeps the first
	// write error and Flush returns it, so a full disk cannot leave a
	// truncated report behind a success message.
	w := bufio.NewWriter(dst)
	start := time.Now()
	done, err := report(w, *only, *header, *ablations)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := closeDst(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mscbench: %s (%.1fs)\n", done, time.Since(start).Seconds())
	return nil
}

// report writes the experiment named by only, or every experiment when
// only is empty, to w and returns a one-line summary of what passed.
func report(w io.Writer, only string, header, ablations bool) (string, error) {
	if header {
		fmt.Fprint(w, preamble)
	}
	experiments := harness.All()
	if ablations {
		experiments = harness.AllWithAblations()
	}
	for _, e := range experiments {
		if only != "" && e.ID != only {
			continue
		}
		fmt.Fprintf(w, "## %s — %s\n\nReproduces: %s.\n\n", e.ID, e.Title, e.Paper)
		if err := e.Run(w); err != nil {
			return "", fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		if only != "" {
			return e.ID + " ok", nil
		}
		fmt.Fprintln(w)
	}
	if only != "" {
		return "", fmt.Errorf("unknown experiment %q", only)
	}
	return fmt.Sprintf("all %d experiments ok", len(experiments)), nil
}
