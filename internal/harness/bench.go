package harness

// BenchSuite is the benchmark corpus: the paper's workload suite plus
// the optimizer-demonstration workloads, which carry the
// statically-decidable branches the paper programs don't (their
// automata are already minimal, so they exercise the optimizer's
// no-regression side while these two show the reduction side).
func BenchSuite() []Workload {
	return append(Suite(),
		Workload{Name: "debug-guards", Source: DebugGuards, Width: 8},
		Workload{Name: "mode-select", Source: ModeSelect, Width: 8},
	)
}

// SweepWorkloads is the width-sweep corpus: workloads whose per-PE work
// is independent of the machine width (every PE runs the same bounded
// program regardless of N), so their rows measure the VM's width
// scaling and nothing else. Collatz's trajectory lengths depend on
// iproc, so the pinned sweep (TestOptGoldens) stops it at 65536 PEs.
func SweepWorkloads() []Workload {
	return []Workload{
		{Name: "divergent", Source: Divergent},
		{Name: "stencil", Source: Stencil},
		{Name: "collatz", Source: Collatz},
		{Name: "farm", Source: Farm, InitialActive: 1},
	}
}
