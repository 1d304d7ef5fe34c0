package analysis

import "msc/internal/cfg"

// CompareWithReference is the hook the external pool test uses: it
// compiles the benchmark's programs through packages that import this
// one, so it cannot live in package analysis.
func CompareWithReference(g *cfg.Graph) error { return compareWithReference(g, nil) }
