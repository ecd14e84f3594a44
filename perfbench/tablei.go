package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"time"

	"partitionshare/internal/compose"
	"partitionshare/internal/experiment"
	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/reuse"
	"partitionshare/internal/textplot"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// suiteGroups is C(16,4), the number of co-run groups Table I covers.
const suiteGroups = 1820

// tableIRun is one timed cmd/experiments process.
type tableIRun struct {
	wall           time.Duration
	rss            float64
	stages         map[string]manifestStage
	counters       map[string]int64
	groupDurations []float64 // ms, one per experiment.group span
}

type manifestStage struct {
	WallNS int64 `json:"wall_ns"`
	CPUNS  int64 `json:"cpu_ns"`
}

// runExperiments runs cmd/experiments at full geometry with no optional
// studies, writing its CSVs, manifest and trace events into dir.
func runExperiments(c *config, dir string) (tableIRun, error) {
	var r tableIRun
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	logf, err := os.Create(filepath.Join(dir, "experiments.log"))
	if err != nil {
		return r, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(c.bin, "experiments"),
		"-out", dir, "-trace-events", filepath.Join(dir, "events.json"), "-log-level", "warn")
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("experiments: %v (log in %s)", err, logf.Name())
	}
	r.wall = time.Since(start)
	r.rss = peakRSS(cmd.ProcessState)

	var m struct {
		Stages []struct {
			Name string `json:"name"`
			manifestStage
		} `json:"stages"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := readJSON(filepath.Join(dir, "manifest.json"), &m); err != nil {
		return r, err
	}
	r.stages = map[string]manifestStage{}
	for _, s := range m.Stages {
		r.stages[s.Name] = s.manifestStage
	}
	r.counters = m.Counters
	var ev struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := readJSON(filepath.Join(dir, "events.json"), &ev); err != nil {
		return r, err
	}
	for _, e := range ev.TraceEvents {
		if e.Ph == "X" && e.Name == "experiment.group" {
			r.groupDurations = append(r.groupDurations, e.Dur/1000)
		}
	}
	return r, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// tableI is the end-to-end offline-tablei workload: cmd/experiments
// runs back to back until the window is used, each run's CSVs checked
// byte for byte against the committed results/ outside its timing.
// Each metric is the median over runs.
func tableI(c *config, o *outcome) error {
	var runs []tableIRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < c.seconds {
		dir := filepath.Join(c.work, fmt.Sprintf("tablei-%d", len(runs)))
		r, err := runExperiments(c, dir)
		o.attempted += suiteGroups
		if err != nil {
			o.failed += suiteGroups
			o.mismatch("%v", err)
			break
		}
		o.failed += int(r.counters["experiment.groups_failed"])
		if got := r.counters["experiment.groups_completed"]; got != suiteGroups {
			o.mismatch("experiments completed %d groups, want %d", got, suiteGroups)
		}
		for _, b := range checkCSVs(dir, filepath.Join(c.root, "results")) {
			o.mismatch("%s", b)
		}
		runs = append(runs, r)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if len(runs) == 0 {
		o.metrics["ok_ratio"] = 0
		return nil
	}

	var walls, profile, sweep, reports, profileCPU, sweepCPU, rate, rss, means, p50s, p90s []float64
	for _, r := range runs {
		means = append(means, mean(r.groupDurations))
		p50s = append(p50s, percentile(r.groupDurations, 0.50))
		p90s = append(p90s, percentile(r.groupDurations, 0.90))
		walls = append(walls, r.wall.Seconds())
		profile = append(profile, float64(r.stages["profile"].WallNS)/1e9)
		sweep = append(sweep, float64(r.stages["sweep"].WallNS)/1e9)
		reports = append(reports, float64(r.stages["reports"].WallNS)/1e9)
		profileCPU = append(profileCPU, float64(r.stages["profile"].CPUNS)/1e9)
		sweepCPU = append(sweepCPU, float64(r.stages["sweep"].CPUNS)/1e9)
		rate = append(rate, float64(r.counters["experiment.groups_completed"])/(float64(r.stages["sweep"].WallNS)/1e9))
		rss = append(rss, r.rss)
	}
	o.metrics["setup_s"] = median(profile)
	// A mean, not a median: group times split into two modes whose
	// weights follow load from other guests on the host, and the median
	// jumps between them from run to run.
	o.metrics["latency_ms"] = median(means)
	o.metrics["tail_ms"] = median(p90s)
	o.metrics["ops_per_s"] = median(rate)
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["ok_ratio"] = 1 - float64(o.failed)/float64(o.attempted)

	last := runs[len(runs)-1].counters
	o.add("tablei_s", median(walls), "s", fmt.Sprintf("median wall of %d experiments runs", len(runs)))
	o.add("profile stage", median(profile), "s", fmt.Sprintf("wall; CPU %.3f s (trace → reuse → footprint → MRC)", median(profileCPU)))
	o.add("sweep stage", median(sweep), "s", fmt.Sprintf("wall; CPU %.3f s (%d groups × 6 schemes)", median(sweepCPU), suiteGroups))
	o.add("reports stage", median(reports), "s", "wall")
	o.add("group_mean_ms", median(means), "ms", fmt.Sprintf("per-run mean of %d group evaluations; median of runs", suiteGroups))
	o.add("group_p50_ms", median(p50s), "ms", "per-run p50; median of runs")
	o.add("group_p90_ms", median(p90s), "ms", "per-run p90; median of runs")
	o.add("groups_per_s", median(rate), "1/s", "over the sweep stage")
	o.add("peak_rss_mb", median(rss), "MiB", "experiments process")
	o.add("fail_ratio", float64(o.failed)/float64(o.attempted), "ratio", fmt.Sprintf("%d of %d groups", o.failed, o.attempted))
	for _, k := range []string{"partition.solves", "partition.dp_cells", "workload.trace_accesses"} {
		o.add(k, float64(last[k]), "count", "manifest counter, last run")
	}
	return nil
}

// profileSeed is the trace seed workload.Profile gives a program: the
// config seed mixed with the FNV-1a hash of the program's name.
func profileSeed(cfg workload.Config, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return cfg.Seed*0x100000001b3 ^ h.Sum64()
}

// profileSuite profiles the 16 programs one call at a time, the steps
// workload.Profile takes, with a span around each call.
func profileSuite(rec *recorder, cfg workload.Config) ([]workload.Program, int64) {
	var progs []workload.Program
	var accesses int64
	for _, spec := range workload.Specs() {
		id := rec.begin("workload.profile")
		gen := spec.Build(uint32(cfg.CacheBlocks()), profileSeed(cfg, spec.Name))
		var tr trace.Trace
		rec.do("trace.generate", func() { tr = trace.Generate(gen, cfg.TraceLen) })
		var rp reuse.Profile
		rec.do("reuse.collect", func() { rp = reuse.Collect(tr) })
		var fp footprint.Footprint
		rec.do("footprint.new", func() { fp = footprint.New(rp) })
		var curve mrc.Curve
		rec.do("mrc.from_footprint", func() {
			curve = mrc.FromFootprint(spec.Name, fp, cfg.Units, cfg.BlocksPerUnit, spec.Rate)
		})
		curve.Accesses = int64(float64(cfg.TraceLen) * spec.Rate)
		rec.end(id)
		accesses += int64(len(tr))
		progs = append(progs, workload.Program{Name: spec.Name, Rate: spec.Rate, Fp: fp, Curve: curve})
	}
	return progs, accesses
}

// solveStats count a replay's Optimize calls and how many ran the exact rung.
type solveStats struct {
	optimizes, exact int
}

// sweepSuite evaluates every group with experiment.EvaluateGroup, then
// times the scheme solves the sweep makes one by one on the shared
// cost table, as experiment.Run does.
func sweepSuite(rec *recorder, progs []workload.Program, groups [][]int, st *solveStats) ([]experiment.GroupResult, error) {
	var tab [][]float64
	rec.do("experiment.cost_table", func() { tab = experiment.CostTable(progs, units) })
	var out []experiment.GroupResult
	for _, g := range groups {
		var gr experiment.GroupResult
		var err error
		rec.do("experiment.evaluate_group", func() { gr, err = experiment.EvaluateGroup(progs, g, units, blocksPerUnit) })
		if err != nil {
			return nil, err
		}
		out = append(out, gr)

		curves := make([]mrc.Curve, len(g))
		comps := make([]compose.Program, len(g))
		rows := make([][]float64, len(g))
		for i, m := range g {
			curves[i] = progs[m].Curve
			comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
			rows[i] = tab[m]
		}
		pr := partition.Problem{Curves: curves, Units: units, CostTable: rows}
		var natural []int
		rec.do("compose.natural_partition", func() { natural = compose.NaturalPartitionUnits(comps, units, blocksPerUnit) })
		for _, base := range []partition.Allocation{partition.EqualAllocation(len(g), units), natural} {
			rec.do("partition.optimize_baseline", func() { _, err = partition.OptimizeBaseline(pr, base) })
			if err != nil {
				return nil, err
			}
		}
		var sol partition.Solution
		rec.do("partition.optimize", func() { sol, err = partition.Optimize(pr) })
		if err != nil {
			return nil, err
		}
		st.optimizes++
		if sol.SolverPath == "exact" {
			st.exact++
		}
		if !reflect.DeepEqual([]int(sol.Alloc), gr.Alloc[experiment.Optimal]) {
			return nil, fmt.Errorf("group %v: Optimize %v, EvaluateGroup's Optimal %v", g, sol.Alloc, gr.Alloc[experiment.Optimal])
		}
		rec.do("partition.sttw", func() { partition.STTW(curves, units) })
	}
	return out, nil
}

// reportCSVs renders Table I and Figures 5–7 from a sweep result, the
// series cmd/experiments writes.
func reportCSVs(res experiment.Result) (map[string][]byte, error) {
	out := map[string][]byte{}
	write := func(name string, series []textplot.Series) error {
		var b bytes.Buffer
		if err := textplot.WriteCSV(&b, series); err != nil {
			return err
		}
		out[name] = b.Bytes()
		return nil
	}
	var table []textplot.Series
	for _, r := range experiment.TableI(res) {
		table = append(table, textplot.Series{Name: r.Baseline.String(),
			Values: []float64{r.Max, r.Avg, r.Median, r.AtLeast10, r.AtLeast20}})
	}
	five := []experiment.Scheme{experiment.Natural, experiment.Equal,
		experiment.NaturalBaseline, experiment.EqualBaseline, experiment.Optimal}
	g6 := experiment.GroupSeries(res, five)
	var fig6 []textplot.Series
	for _, s := range five {
		fig6 = append(fig6, textplot.Series{Name: s.String(), Values: g6[s]})
	}
	g7 := experiment.GroupSeries(res, []experiment.Scheme{experiment.STTW, experiment.Optimal})
	fig7 := []textplot.Series{
		{Name: "Stone-Thiebaut-Turek-Wolf", Values: g7[experiment.STTW]},
		{Name: "Optimal", Values: g7[experiment.Optimal]},
	}
	for name, s := range map[string][]textplot.Series{"table1.csv": table, "fig6.csv": fig6, "fig7.csv": fig7} {
		if err := write(name, s); err != nil {
			return nil, err
		}
	}
	for i, p := range res.Programs {
		series := experiment.ProgramSeries(res, i, five)
		var fig5 []textplot.Series
		for _, s := range five {
			fig5 = append(fig5, textplot.Series{Name: s.String(), Values: series[s]})
		}
		if err := write("fig5_"+p.Name+".csv", fig5); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tableITraced is offline-tablei's traced run. It runs cmd/experiments
// once for the manifest's stage times, then replays the pipeline in
// process: profile the suite, sweep the 1820 groups, render the
// reports. The sweep runs untraced, traced, untraced; their wall times
// give obs.trace_overhead_ratio.
func tableITraced(c *config, o *outcome) error {
	r, err := runExperiments(c, filepath.Join(c.work, "tablei"))
	o.attempted++
	if err != nil {
		o.failed++
		return err
	}
	for _, b := range checkCSVs(filepath.Join(c.work, "tablei"), filepath.Join(c.root, "results")) {
		o.mismatch("%s", b)
	}
	for _, s := range []string{"profile", "sweep", "reports"} {
		o.add("manifest."+s, float64(r.stages[s].WallNS)/1e9, "s",
			fmt.Sprintf("wall; CPU %.3f s → setup_s/ops_per_s (offline-tablei)", float64(r.stages[s].CPUNS)/1e9))
	}

	cfg := workload.DefaultConfig()
	rec := newRecorder()
	progs, accesses := profileSuite(rec, cfg)
	check, err := workload.Profile(workload.Specs()[0], cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(check.Curve, progs[0].Curve) {
		o.mismatch("replayed profile of %s differs from workload.Profile", check.Name)
	}
	groups, err := experiment.Combinations(len(progs), 4)
	if err != nil {
		return err
	}

	var st solveStats
	var results []experiment.GroupResult
	reg := obs.NewRegistry()
	plain, traced, err := overhead(func(r *recorder) error {
		if r == nil {
			_, err := sweepSuite(nil, progs, groups, &solveStats{})
			return err
		}
		obs.Enable(reg)
		defer obs.Enable(nil)
		var err error
		results, err = sweepSuite(r, progs, groups, &st)
		return err
	}, rec)
	if err != nil {
		o.mismatch("%v", err)
		return nil
	}
	counters := reg.Snapshot().Counters

	var csvs map[string][]byte
	rec.do("experiment.report", func() {
		csvs, err = reportCSVs(experiment.Result{Programs: progs, Units: units, Groups: results})
	})
	if err != nil {
		return err
	}
	for name, got := range csvs {
		want, err := os.ReadFile(filepath.Join(c.root, "results", name))
		if err != nil || !bytes.Equal(got, want) {
			o.mismatch("replayed %s differs from results/%s", name, name)
		}
	}
	o.attempted += len(groups)

	layers := rec.selfTimes()
	o.metrics["obs.trace_overhead_ratio"] = traced.Seconds() / plain.Seconds()
	o.metrics["partition.exact_path_share"] = float64(st.exact) / float64(st.optimizes)
	o.metrics["partition.solves"] = float64(counters["partition.solves"])
	o.metrics["partition.dp_cells"] = float64(counters["partition.dp_cells"])
	layerMetrics(o, layers, []layerRow{
		{"workload.profile", "setup_s (offline-tablei)"},
		{"trace.generate", "setup_s (offline-tablei)"},
		{"reuse.collect", "setup_s (offline-tablei)"},
		{"footprint.new", "setup_s (offline-tablei); latency_ms (churn)"},
		{"mrc.from_footprint", "setup_s (offline-tablei); latency_ms (churn)"},
		{"experiment.cost_table", "ops_per_s (offline-tablei)"},
		{"experiment.evaluate_group", "latency_ms, tail_ms, ops_per_s (offline-tablei)"},
		{"compose.natural_partition", "latency_ms, ops_per_s (offline-tablei)"},
		{"partition.optimize_baseline", "latency_ms, ops_per_s (offline-tablei)"},
		{"partition.optimize", "latency_ms, ops_per_s (offline-tablei)"},
		{"partition.sttw", "latency_ms, ops_per_s (offline-tablei)"},
		{"experiment.report", "tablei_s (offline-tablei)"},
	})
	o.add("trace.accesses", float64(accesses), "count", "setup_s (offline-tablei)")
	o.add("partition.solves", o.metrics["partition.solves"], "count", "traced sweep")
	o.add("partition.dp_cells", o.metrics["partition.dp_cells"], "count", "traced sweep")
	o.add("partition.exact_path_share", o.metrics["partition.exact_path_share"], "ratio", "Optimize calls on the exact rung")
	o.add("obs.trace_overhead_ratio", o.metrics["obs.trace_overhead_ratio"], "ratio",
		fmt.Sprintf("traced sweep %.3f s ÷ untraced %.3f s", traced.Seconds(), plain.Seconds()))
	return writeTrace(c, rec)
}
