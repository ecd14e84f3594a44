package partition

import (
	"testing"

	"partitionshare/internal/mrc"
)

// fuzzProblem decodes arbitrary fuzz bytes into a partitioning instance:
// byte 0 picks the program count, byte 1 the unit count, byte 2 the
// solver selection (auto, exact, forced refinement — the forced rungs
// must still match the reference bit-for-bit, falling back wherever the
// refinement certificate rejects the instance), and the rest become
// miss-ratio points in [0, 1] — arbitrary shapes, including non-monotone
// and non-convex curves, since the DP claims optimality with no
// assumptions on the curves.
func fuzzProblem(data []byte) (Problem, bool) {
	if len(data) < 3 {
		return Problem{}, false
	}
	n := int(data[0])%3 + 2      // 2..4 programs
	units := int(data[1])%24 + 2 // 2..25 units
	solver := Solver(int(data[2]) % 3)
	data = data[3:]
	curves := make([]mrc.Curve, n)
	for p := range curves {
		mr := make([]float64, units+1)
		for u := range mr {
			var b byte = 128
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			mr[u] = float64(b) / 255
		}
		curves[p] = mrc.Curve{Name: "f", MR: mr, Accesses: int64(100 * (p + 1))}
	}
	return Problem{Curves: curves, Units: units, Solver: solver}, true
}

// FuzzOptimize differentially tests the pooled gather-form DP kernel
// against the straightforward reference DP on arbitrary curves: both must
// agree bit-for-bit (objective, allocation, tie-breaking) and never
// panic. The parallel solver must agree too.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 8, 200, 150, 100, 50, 25, 10, 5, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 23, 255, 0, 255, 0, 255, 0, 128, 128, 64, 32})
	// One seed per solver selection: exact, refinement, auto.
	f.Add([]byte{2, 20, 1, 240, 200, 160, 120, 90, 60, 40, 20, 10})
	f.Add([]byte{2, 20, 2, 240, 200, 160, 120, 90, 60, 40, 20, 10})
	f.Add([]byte{2, 20, 3, 240, 200, 160, 120, 90, 60, 40, 20, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, ok := fuzzProblem(data)
		if !ok {
			return
		}
		// The reference is solver-blind; the selection must not change
		// results, only the computation strategy.
		refPr := pr
		refPr.Solver = SolverAuto
		want, errRef := ReferenceOptimize(refPr)
		got, errOpt := Optimize(pr)
		if (errRef == nil) != (errOpt == nil) {
			t.Fatalf("error disagreement: reference %v, optimized %v", errRef, errOpt)
		}
		if errRef != nil {
			return
		}
		if got.Objective != want.Objective {
			t.Fatalf("objective %v != reference %v", got.Objective, want.Objective)
		}
		for i := range want.Alloc {
			if got.Alloc[i] != want.Alloc[i] {
				t.Fatalf("alloc %v != reference %v", got.Alloc, want.Alloc)
			}
		}
		par, err := OptimizeParallel(nil, pr, 3)
		if err != nil {
			t.Fatalf("parallel solve failed: %v", err)
		}
		if par.Objective != want.Objective {
			t.Fatalf("parallel objective %v != reference %v", par.Objective, want.Objective)
		}
	})
}
