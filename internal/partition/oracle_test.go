package partition_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
	"partitionshare/internal/workload"
)

// These tests check the refinement rung — the solver SolverAuto takes at
// the paper's geometry — against oracles that share no code with it: an
// exhaustive enumeration of integer compositions (Thakur, arXiv
// 1608.08412, counts the C+P−1 choose P−1 of them) and the exact kernel
// over every Table I co-run group of the 16-program suite.

var (
	suiteOnce   sync.Once
	suiteCurves []mrc.Curve
	suiteErr    error
)

// suite profiles the 16 suite programs at the full experiment geometry
// (C = 1024 units) once per test binary.
func suite(t *testing.T) []mrc.Curve {
	t.Helper()
	suiteOnce.Do(func() {
		progs, err := workload.ProfileAll(nil, workload.Specs(), workload.DefaultConfig())
		if err != nil {
			suiteErr = err
			return
		}
		for _, p := range progs {
			suiteCurves = append(suiteCurves, p.Curve)
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteCurves
}

// exhaustiveMin enumerates every composition u_0 + … + u_{n−1} = C with
// u_i ≥ 0, scoring each by the left-to-right float64 sum of costs[i][u_i]
// (the DP's own accumulation order, so the minimum is comparable bit for
// bit). It returns the minimum objective and how many compositions reach
// it.
func exhaustiveMin(costs [][]float64, C int) (best float64, ties int) {
	n := len(costs)
	best = math.Inf(1)
	var rec func(p, left int, acc float64)
	rec = func(p, left int, acc float64) {
		if p == n-1 {
			obj := acc + costs[p][left]
			switch {
			case obj < best:
				best, ties = obj, 1
			case obj == best:
				ties++
			}
			return
		}
		for u := 0; u <= left; u++ {
			rec(p+1, left-u, acc+costs[p][u])
		}
	}
	rec(0, C, 0)
	return best, ties
}

// objectiveOf scores one allocation exactly as exhaustiveMin scores a
// composition, after checking it is one.
func objectiveOf(t *testing.T, costs [][]float64, alloc partition.Allocation, C int) float64 {
	t.Helper()
	if len(alloc) != len(costs) {
		t.Fatalf("allocation %v for %d programs", alloc, len(costs))
	}
	obj, total := 0.0, 0
	for p, u := range alloc {
		if u < 0 || u > C {
			t.Fatalf("allocation %v out of range", alloc)
		}
		obj += costs[p][u]
		total += u
	}
	if total != C {
		t.Fatalf("allocation %v sums to %d, want %d", alloc, total, C)
	}
	return obj
}

// cliffCurve is a synthetic non-convex miss-ratio curve: a high plateau
// until the working set fits at unit cliff, a steep drop, then a low
// plateau. A slight slope keeps the plateaus from being exactly flat.
func cliffCurve(name string, accesses int64, cliff int, hi, lo float64) mrc.Curve {
	const units = 1024
	mr := make([]float64, units+1)
	for u := range mr {
		v := lo
		if u < cliff {
			v = hi
		}
		mr[u] = v * (1 - 0.05*float64(u)/units)
	}
	return mrc.Curve{Name: name, MR: mr, Accesses: accesses, AccessRate: 1}
}

// TestRefineExhaustiveOracle solves small suite groups and synthetic
// cliff groups at C ∈ {512, 600} under SolverAuto and checks the result
// against exhaustive enumeration: the refine rung must run, its objective
// must equal the enumerated minimum bit for bit, and its allocation —
// which must equal ReferenceOptimize's — must be one of the minimisers.
func TestRefineExhaustiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("suite profiling in -short mode")
	}
	s := suite(t)
	cliffs := []mrc.Curve{
		cliffCurve("cliff-a", 1_000_000, 150, 0.9, 0.05),
		cliffCurve("cliff-b", 700_000, 320, 0.6, 0.02),
		cliffCurve("cliff-c", 2_000_000, 90, 0.4, 0.1),
	}
	groups := map[string][]mrc.Curve{}
	for _, g := range [][]int{{0, 1}, {2, 7}, {5, 12}, {9, 15}, {0, 1, 2}, {3, 8, 14}, {4, 10, 13}, {6, 11, 15}} {
		var cs []mrc.Curve
		name := "suite"
		for _, i := range g {
			cs = append(cs, s[i])
			name += "/" + s[i].Name
		}
		groups[name] = cs
	}
	groups["cliff/ab"] = cliffs[:2]
	groups["cliff/bc"] = cliffs[1:]
	groups["cliff/abc"] = cliffs
	groups["mixed/"+s[1].Name+"+cliff-a+cliff-c"] = []mrc.Curve{s[1], cliffs[0], cliffs[2]}

	for name, curves := range groups {
		for _, C := range []int{512, 600} {
			t.Run(fmt.Sprintf("%s/C=%d", name, C), func(t *testing.T) {
				costs := make([][]float64, len(curves))
				for p, c := range curves {
					costs[p] = make([]float64, C+1)
					for u := range costs[p] {
						costs[p][u] = c.MissCount(u)
					}
				}
				best, ties := exhaustiveMin(costs, C)

				pr := partition.Problem{Curves: curves, Units: C}
				got, err := partition.Optimize(pr)
				if err != nil {
					t.Fatal(err)
				}
				if got.SolverPath != "refine" {
					t.Errorf("path %q, want refine", got.SolverPath)
				}
				if math.Float64bits(got.Objective) != math.Float64bits(best) {
					t.Errorf("objective %v, exhaustive minimum %v", got.Objective, best)
				}
				if obj := objectiveOf(t, costs, got.Alloc, C); obj != best {
					t.Errorf("allocation %v scores %v, exhaustive minimum %v (%d minimisers)", got.Alloc, obj, best, ties)
				}
				ref, err := partition.ReferenceOptimize(pr)
				if err != nil {
					t.Fatal(err)
				}
				if obj := objectiveOf(t, costs, ref.Alloc, C); obj != best {
					t.Errorf("reference allocation %v scores %v, not among the %d minimisers at %v", ref.Alloc, obj, ties, best)
				}
				if !reflect.DeepEqual(got.Alloc, ref.Alloc) {
					t.Errorf("allocation %v, reference %v (%d minimisers)", got.Alloc, ref.Alloc, ties)
				}
			})
		}
	}
}

// TestRefineDifferentialSuiteGroups solves every C(16,4) suite group at
// the full C = 1024 geometry under SolverAuto and SolverExact: the
// refine rung must run on each and agree with the exact kernel on the
// allocation and the objective bits.
func TestRefineDifferentialSuiteGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("1820-group sweep in -short mode")
	}
	s := suite(t)
	units := workload.DefaultConfig().Units
	groups, refined := 0, 0
	g := make([]mrc.Curve, 4)
	for a := 0; a < len(s); a++ {
		for b := a + 1; b < len(s); b++ {
			for c := b + 1; c < len(s); c++ {
				for d := c + 1; d < len(s); d++ {
					g[0], g[1], g[2], g[3] = s[a], s[b], s[c], s[d]
					pr := partition.Problem{Curves: g, Units: units}
					auto, err := partition.Optimize(pr)
					if err != nil {
						t.Fatal(err)
					}
					pr.Solver = partition.SolverExact
					exact, err := partition.Optimize(pr)
					if err != nil {
						t.Fatal(err)
					}
					groups++
					if auto.SolverPath == "refine" {
						refined++
					}
					if !reflect.DeepEqual(auto.Alloc, exact.Alloc) ||
						math.Float64bits(auto.Objective) != math.Float64bits(exact.Objective) {
						t.Errorf("group %s,%s,%s,%s: auto (path %s) %v/%v, exact %v/%v",
							s[a].Name, s[b].Name, s[c].Name, s[d].Name, auto.SolverPath,
							auto.Alloc, auto.Objective, exact.Alloc, exact.Objective)
					}
				}
			}
		}
	}
	if groups != 1820 {
		t.Fatalf("swept %d groups, want 1820", groups)
	}
	if refined != groups {
		t.Errorf("refine rung ran on %d of %d groups", refined, groups)
	}
}
