package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
)

func TestPercentileKnownSamples(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	// 1..100: the p90 position is 0.9·99 = 89.1, between 90 and 91.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "outer", Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "inner", Parent: 0, Start: 1 * time.Millisecond, End: 4 * time.Millisecond},
		{Name: "inner", Parent: 0, Start: 5 * time.Millisecond, End: 7 * time.Millisecond},
		{Name: "leaf", Parent: 2, Start: 5 * time.Millisecond, End: 6 * time.Millisecond},
	}}
	got := r.selfTimes()
	want := map[string][]float64{"outer": {5}, "inner": {3, 1}, "leaf": {1}}
	for name, w := range want {
		if got[name] == nil || !reflect.DeepEqual(got[name].Self, w) || got[name].Calls != len(w) {
			t.Errorf("%s: self %v, want %v", name, got[name], w)
		}
	}
}

// testCurves returns P synthetic curves at the served geometry with
// distinct shapes, so the optimum is unique and non-trivial.
func testCurves(p int) []mrc.Curve {
	var out []mrc.Curve
	for i := 0; i < p; i++ {
		mr := make([]float64, units+1)
		knee := float64(100 + 150*i)
		for u := range mr {
			mr[u] = 1 / (1 + math.Pow(float64(u)/knee, 2+float64(i)/2))
		}
		out = append(out, mrc.Curve{Name: string(rune('a' + i)), MR: mr, Accesses: int64(1000 * (i + 1))})
	}
	return out
}

func testOracle(t *testing.T, curves []mrc.Curve) (*planOracle, []string, []byte) {
	t.Helper()
	o := &planOracle{curves: map[string]mrc.Curve{}, refs: map[string]partition.Solution{}}
	var names []string
	for _, c := range curves {
		o.curves[c.Name] = c
		names = append(names, c.Name)
	}
	ref, err := partition.ReferenceOptimize(partition.Problem{Curves: curves, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(servedPlan{Tenants: names, Units: units, Alloc: ref.Alloc,
		Objective: ref.Objective, GroupMissRatio: ref.GroupMissRatio, MissRatios: ref.MissRatios})
	if err != nil {
		t.Fatal(err)
	}
	return o, names, body
}

func TestPlanOracleRejectsCorruption(t *testing.T) {
	o, names, body := testOracle(t, testCurves(4))
	if msg := o.check(body, names); msg != "" {
		t.Fatalf("exact plan rejected: %s", msg)
	}
	corrupt := func(edit func(p *servedPlan)) []byte {
		var p servedPlan
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		edit(&p)
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"one unit moved": corrupt(func(p *servedPlan) {
			from := slices.IndexFunc(p.Alloc, func(a int) bool { return a > 0 })
			p.Alloc[from]--
			p.Alloc[(from+1)%len(p.Alloc)]++
		}),
		"objective off by one ulp": corrupt(func(p *servedPlan) { p.Objective = math.Nextafter(p.Objective, math.Inf(1)) }),
		"miss ratio off by one ulp": corrupt(func(p *servedPlan) {
			p.MissRatios[2] = math.Nextafter(p.MissRatios[2], math.Inf(1))
		}),
		"tenant dropped": corrupt(func(p *servedPlan) { p.Tenants = p.Tenants[:3] }),
		"degraded":       corrupt(func(p *servedPlan) { p.Degraded = true }),
		"wrong units":    corrupt(func(p *servedPlan) { p.Units = units / 2 }),
		"not json":       []byte("{"),
	} {
		if msg := o.check(bad, names); msg == "" {
			t.Errorf("%s: oracle accepted a corrupted plan", name)
		}
	}
}

func TestCheckEpochs(t *testing.T) {
	ev := func(epoch int64, tenants ...string) epochEvent { return epochEvent{Epoch: epoch, Tenants: tenants} }
	expected := [][]string{{"a"}, {"a", "b"}, {"b"}}
	good := []epochEvent{ev(1, "a"), ev(2, "b", "a"), ev(3, "b")}
	if bad := checkEpochs(good, expected); len(bad) != 0 {
		t.Fatalf("good stream rejected: %v", bad)
	}
	for name, events := range map[string][]epochEvent{
		"missing epoch":    {ev(1, "a"), ev(3, "b")},
		"duplicated epoch": {ev(1, "a"), ev(1, "a"), ev(2, "a", "b"), ev(3, "b")},
		"repeated number":  {ev(1, "a"), ev(2, "a", "b"), ev(2, "b")},
		"wrong tenant set": {ev(1, "a"), ev(2, "a"), ev(3, "b")},
		"extra epoch":      {ev(1, "a"), ev(2, "a", "b"), ev(3, "b"), ev(4, "b")},
	} {
		if bad := checkEpochs(events, expected); len(bad) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckHistory(t *testing.T) {
	raw := []string{`{"provenance":{"epoch":1},"tenants":["a"]}`, `{"provenance":{"epoch":2},"tenants":["a","b"]}`}
	var delivered []epochEvent
	var history []json.RawMessage
	for _, r := range raw {
		e, err := parseEpoch([]byte(r))
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, e)
		// History arrives indented inside a wrapper; only the value counts.
		history = append(history, json.RawMessage(strings.ReplaceAll(r, ",", ", ")))
	}
	if bad := checkHistory(history, delivered); len(bad) != 0 {
		t.Fatalf("equal history rejected: %v", bad)
	}
	if bad := checkHistory(history[:1], delivered); len(bad) == 0 {
		t.Error("history missing a record accepted")
	}
	changed := append([]json.RawMessage{history[0]}, json.RawMessage(`{"provenance":{"epoch":2},"tenants":["a"]}`))
	if bad := checkHistory(changed, delivered); len(bad) == 0 {
		t.Error("history with a changed record accepted")
	}
}

func TestCheckCSVsRejectsOneByteChange(t *testing.T) {
	want, got := t.TempDir(), t.TempDir()
	for i, name := range tableIOutputs() {
		body := []byte("series,v\nOptimal," + strings.Repeat("0.5,", i) + "1\n")
		for _, dir := range []string{want, got} {
			if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bad := checkCSVs(got, want); len(bad) != 0 {
		t.Fatalf("identical outputs rejected: %v", bad)
	}
	path := filepath.Join(got, "fig7.csv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if bad := checkCSVs(got, want); len(bad) != 1 || !strings.Contains(bad[0], "fig7.csv") {
		t.Errorf("one-byte change in fig7.csv: got %v", bad)
	}
	if err := os.Remove(filepath.Join(got, "table1.csv")); err != nil {
		t.Fatal(err)
	}
	if bad := checkCSVs(got, want); len(bad) != 2 {
		t.Errorf("missing table1.csv: got %v", bad)
	}
}

func TestMutationCyclesAreBalanced(t *testing.T) {
	names := suiteNames()
	gen := newMutationGen(7, 0, names)
	for _, m := range gen.initial() {
		gen.apply(m)
	}
	if len(gen.active) != len(names) {
		t.Fatalf("set-up leaves %d tenants, want %d", len(gen.active), len(names))
	}
	for cycle := 0; cycle < 3; cycle++ {
		puts := map[string]int{}
		for _, m := range gen.cycle() {
			gen.apply(m)
			if n := len(gen.active); n < minActive || n > len(names) {
				t.Fatalf("cycle %d: %d active tenants", cycle, n)
			}
			if !m.del {
				puts[m.name]++
			}
		}
		if len(puts) != len(names) {
			t.Errorf("cycle %d uploads %d distinct programs, want %d", cycle, len(puts), len(names))
		}
		for n, k := range puts {
			if k != 1 {
				t.Errorf("cycle %d uploads %s %d times", cycle, n, k)
			}
		}
	}
	a, b := newMutationGen(7, 0, names), newMutationGen(7, 0, names)
	if !reflect.DeepEqual(a.initial(), b.initial()) {
		t.Error("same seed gave different set-up orders")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program's
// metric and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range raw.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, []string{wServePlan, wChurn, wTableI}) {
		t.Errorf("workloads %v", workloads)
	}
	for i, m := range raw.EndToEnd {
		if i >= len(endToEnd) || m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %v, program has %v", i, m, endToEnd)
		}
	}
	if len(raw.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end_to_end metrics, program reports %d", len(raw.EndToEnd), len(endToEnd))
	}
	for i, m := range raw.PerLayer {
		if i >= len(perLayer) || m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %v, program has %v", i, m, perLayer)
		}
	}
	if len(raw.PerLayer) != len(perLayer) {
		t.Errorf("%d per_layer metrics, program reports %d", len(raw.PerLayer), len(perLayer))
	}
}
