package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
)

// servedPlan is the part of a served plan the oracles check.
type servedPlan struct {
	Epoch          int64     `json:"epoch"`
	Tenants        []string  `json:"tenants"`
	Units          int       `json:"units"`
	Alloc          []int     `json:"alloc"`
	Objective      float64   `json:"objective"`
	GroupMissRatio float64   `json:"group_miss_ratio"`
	MissRatios     []float64 `json:"miss_ratios"`
	Degraded       bool      `json:"degraded"`
}

// planOracle checks served plans bit for bit against
// partition.ReferenceOptimize on curves the benchmark derived itself,
// caching one reference solve per tenant order.
type planOracle struct {
	curves map[string]mrc.Curve
	refs   map[string]partition.Solution
}

func newPlanOracle(suite []suiteProfile) *planOracle {
	o := &planOracle{curves: map[string]mrc.Curve{}, refs: map[string]partition.Solution{}}
	for _, p := range suite {
		o.curves[p.name] = p.curve
	}
	return o
}

// check returns "" when the plan body covers the group want (in any
// order) and is the exact optimum for its tenants in the order it lists
// them; otherwise what differs.
func (o *planOracle) check(body []byte, want []string) string {
	var p servedPlan
	if err := json.Unmarshal(body, &p); err != nil {
		return fmt.Sprintf("plan does not parse: %v", err)
	}
	if !sameSet(p.Tenants, want) {
		return fmt.Sprintf("plan tenants %v, want %v", p.Tenants, want)
	}
	if p.Units != units {
		return fmt.Sprintf("plan units %d, want %d", p.Units, units)
	}
	if p.Degraded {
		return "plan is degraded"
	}
	key := strings.Join(p.Tenants, ",")
	ref, ok := o.refs[key]
	if !ok {
		curves := make([]mrc.Curve, len(p.Tenants))
		for i, t := range p.Tenants {
			c, known := o.curves[t]
			if !known {
				return fmt.Sprintf("plan names unknown tenant %q", t)
			}
			curves[i] = c
		}
		var err error
		ref, err = partition.ReferenceOptimize(partition.Problem{Curves: curves, Units: units})
		if err != nil {
			return fmt.Sprintf("reference solve: %v", err)
		}
		o.refs[key] = ref
	}
	return diffSolution(p, ref)
}

// diffSolution compares a served plan with the reference solution:
// allocation exactly, floats by bit pattern.
func diffSolution(p servedPlan, ref partition.Solution) string {
	if !reflect.DeepEqual(p.Alloc, []int(ref.Alloc)) {
		return fmt.Sprintf("alloc %v, reference %v", p.Alloc, ref.Alloc)
	}
	if math.Float64bits(p.Objective) != math.Float64bits(ref.Objective) {
		return fmt.Sprintf("objective %v, reference %v", p.Objective, ref.Objective)
	}
	if math.Float64bits(p.GroupMissRatio) != math.Float64bits(ref.GroupMissRatio) {
		return fmt.Sprintf("group miss ratio %v, reference %v", p.GroupMissRatio, ref.GroupMissRatio)
	}
	if len(p.MissRatios) != len(ref.MissRatios) {
		return fmt.Sprintf("%d miss ratios, reference %d", len(p.MissRatios), len(ref.MissRatios))
	}
	for i := range p.MissRatios {
		if math.Float64bits(p.MissRatios[i]) != math.Float64bits(ref.MissRatios[i]) {
			return fmt.Sprintf("miss ratio %d: %v, reference %v", i, p.MissRatios[i], ref.MissRatios[i])
		}
	}
	return ""
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	return reflect.DeepEqual(x, y)
}

// epochEvent is the part of a change-feed epoch record the oracles
// check; raw keeps the whole record for the history comparison.
type epochEvent struct {
	Epoch   int64
	Tenants []string
	raw     json.RawMessage
}

func parseEpoch(data []byte) (epochEvent, error) {
	var rec struct {
		Provenance struct {
			Epoch int64 `json:"epoch"`
		} `json:"provenance"`
		Tenants []string `json:"tenants"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return epochEvent{}, err
	}
	return epochEvent{Epoch: rec.Provenance.Epoch, Tenants: rec.Tenants, raw: append(json.RawMessage(nil), data...)}, nil
}

// checkEpochs verifies the change feed of a fresh daemon against the
// mutations the writer made: exactly one epoch per acknowledged
// mutation, epochs strictly increasing from 1, and each event's tenant
// set equal to the set that mutation left. It returns every violation.
func checkEpochs(events []epochEvent, expected [][]string) []string {
	var bad []string
	if len(events) != len(expected) {
		bad = append(bad, fmt.Sprintf("%d epoch events for %d mutations", len(events), len(expected)))
	}
	var last int64
	for i, ev := range events {
		if ev.Epoch <= last {
			bad = append(bad, fmt.Sprintf("event %d: epoch %d after %d (not strictly increasing)", i, ev.Epoch, last))
		}
		last = ev.Epoch
		if i < len(expected) && !sameSet(ev.Tenants, expected[i]) {
			bad = append(bad, fmt.Sprintf("event %d (epoch %d): tenants %v, want %v", i, ev.Epoch, ev.Tenants, expected[i]))
		}
	}
	return bad
}

// checkHistory verifies that GET /v1/plan/history returned exactly the
// records the feed delivered, compared as decoded JSON values.
func checkHistory(history []json.RawMessage, delivered []epochEvent) []string {
	if len(history) != len(delivered) {
		return []string{fmt.Sprintf("history has %d records, feed delivered %d", len(history), len(delivered))}
	}
	var bad []string
	for i := range history {
		var h, d any
		if err := json.Unmarshal(history[i], &h); err != nil {
			return []string{fmt.Sprintf("history record %d does not parse: %v", i, err)}
		}
		if err := json.Unmarshal(delivered[i].raw, &d); err != nil {
			return []string{fmt.Sprintf("delivered record %d does not parse: %v", i, err)}
		}
		if !reflect.DeepEqual(h, d) {
			bad = append(bad, fmt.Sprintf("history record %d differs from delivered epoch %d", i, delivered[i].Epoch))
		}
	}
	return bad
}

// tableIOutputs lists the CSVs an offline run must reproduce: Table I
// and Figures 5 (one per program), 6 and 7.
func tableIOutputs() []string {
	out := []string{"table1.csv", "fig6.csv", "fig7.csv"}
	for _, n := range suiteNames() {
		out = append(out, "fig5_"+n+".csv")
	}
	return out
}

// checkCSVs compares each output in got byte for byte with the
// committed copy in want.
func checkCSVs(got, want string) []string {
	var bad []string
	for _, name := range tableIOutputs() {
		w, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			bad = append(bad, fmt.Sprintf("committed %s: %v", name, err))
			continue
		}
		g, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			bad = append(bad, fmt.Sprintf("output %s: %v", name, err))
			continue
		}
		if !bytes.Equal(g, w) {
			bad = append(bad, fmt.Sprintf("%s differs from results/%s", name, name))
		}
	}
	return bad
}
