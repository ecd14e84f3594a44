package partition

import "fmt"

// Solver selects the solving strategy for Optimize and OptimizeParallel.
// Every strategy returns bit-identical results — objective, allocation,
// and tie-breaking — to ReferenceOptimize; the choice only affects how
// the minima are computed (DESIGN.md §13). The zero value, SolverAuto,
// is the default for every existing caller.
type Solver int

const (
	// SolverAuto walks the solver ladder: coarse-to-fine refinement for
	// every eligible instance, and the blocked exact gather kernel for
	// everything else.
	SolverAuto Solver = iota
	// SolverExact forces the exact gather kernel on every layer — the
	// ladder's bottom rung, and the bit-exactness anchor refinement is
	// tested against.
	SolverExact
	// SolverRefine forces the coarse-to-fine refinement rung. Under the
	// auto ladder it is the same rung; the mode is kept so callers and
	// tests can name it explicitly. Instances the rung cannot certify
	// (minimax or negative/non-finite costs, per-program bounds, tiny C)
	// fall through to the exact kernel.
	SolverRefine
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverExact:
		return "exact"
	case SolverRefine:
		return "refine"
	}
	return fmt.Sprintf("solver(%d)", int(s))
}

// ParseSolver converts a flag string to a Solver.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "auto", "":
		return SolverAuto, nil
	case "exact":
		return SolverExact, nil
	case "refine":
		return SolverRefine, nil
	}
	return SolverAuto, fmt.Errorf("partition: unknown solver %q (want auto, exact, or refine)", s)
}

// solvePath accumulates which rungs of the ladder actually ran during one
// solve, for the Solution.SolverPath report and the obs counters.
type solvePath struct {
	refine         bool
	refineFallback bool
	exactLayers    int
	cells          int64 // DP cells computed
	bandCells      int64 // cells retained by refinement bands
}

// String renders the rung combination: "refine", "exact", or
// "refine-fallback+exact".
func (p *solvePath) String() string {
	switch {
	case p.refine:
		return "refine"
	case p.refineFallback:
		return "refine-fallback+exact"
	default:
		return "exact"
	}
}
