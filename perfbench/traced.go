package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/service"
)

// Fixed replay sizes, so a traced run's call counts repeat exactly for
// a given seed.
const (
	servePlanReplays  = 300
	churnReplayCycles = 2
)

// servePlanTraced is serve-plan's traced run. A daemon phase, the same
// open and closed loops as the end-to-end run, gives the layers only
// the daemon can time (HTTP overhead, admission wait) and the load
// generator's lateness. An in-process replay then registers the suite
// and serves plans through service.PlanFor, and times the plan path's
// calls one by one. The replay runs untraced, then traced; their wall
// times give obs.trace_overhead_ratio.
func servePlanTraced(c *config, o *outcome) error {
	suite, err := loadSuite(c)
	if err != nil {
		return err
	}
	oracle := newPlanOracle(suite)
	openGroup, closedGroup := servePlanGroups(c, suite)

	d, _, err := setupServe(c, suite, filepath.Join(c.work, "daemon"))
	if err != nil {
		return err
	}
	half := c.seconds / 2
	open := openLoop(d, planBody(openGroup), openLoopRate, half, c.nproc)
	closed := closedLoop(d, planBody(closedGroup), half, c.nproc)
	var snap obs.Snapshot
	var flight obs.FlightSnapshot
	errMetrics := d.getJSON("/metrics", &snap)
	errFlight := d.getJSON("/debug/requests", &flight)
	if _, err := d.stop(); err != nil {
		return err
	}
	if errMetrics != nil || errFlight != nil {
		return fmt.Errorf("daemon metrics: %v; flight recorder: %v", errMetrics, errFlight)
	}
	checkSamples(o, oracle, openGroup, open)
	checkSamples(o, oracle, closedGroup, closed)

	var rtt []float64
	for _, s := range append(open, closed...) {
		if s.ok() {
			rtt = append(rtt, ms(s.done.Sub(s.sent)))
		}
	}
	served := snap.Histograms["service.plan.latency_ns"]
	daemonMean := float64(served.Sum) / float64(served.Count) / 1e6
	var admission []float64
	for _, r := range flight.Recent {
		for _, st := range r.Stages {
			if r.Route == "plan_post" && st.Name == "service.req.admission" {
				admission = append(admission, float64(st.DurNS)/1e6)
			}
		}
	}
	_, late := latencies(open)

	var st solveStats
	rec, reg := newRecorder(), obs.NewRegistry()
	plain, traced, err := overhead(func(r *recorder) error {
		var err error
		if r != nil {
			obs.Enable(reg)
			defer obs.Enable(nil)
			st, err = replayServe(r, o, oracle, suite, filepath.Join(c.work, "replay-traced"), openGroup)
			return err
		}
		dir, err := os.MkdirTemp(c.work, "replay-plain-")
		if err != nil {
			return err
		}
		_, err = replayServe(nil, o, oracle, suite, dir, openGroup)
		return err
	}, rec)
	if err != nil {
		return err
	}
	counters := reg.Snapshot().Counters

	o.metrics["obs.trace_overhead_ratio"] = traced.Seconds() / plain.Seconds()
	o.metrics["partition.exact_path_share"] = float64(st.exact) / float64(st.optimizes)
	o.metrics["partition.solves"] = float64(counters["partition.solves"])
	o.metrics["partition.dp_cells"] = float64(counters["partition.dp_cells"])
	layerMetrics(o, rec.selfTimes(), []layerRow{
		{"profileio.read", "setup_s (serve-plan, churn)"},
		{"service.register", "setup_s (serve-plan)"},
		{"footprint.new", "setup_s (serve-plan)"},
		{"mrc.from_footprint", "setup_s (serve-plan)"},
		{"service.plan_for", "latency_ms, ops_per_s (serve-plan)"},
		{"service.plan_encode", "latency_ms, ops_per_s (serve-plan)"},
		{"service.curve_for", "latency_ms (serve-plan)"},
		{"partition.optimize", "latency_ms, ops_per_s (serve-plan)"},
		{"service.input_digest", "latency_ms (serve-plan)"},
	})
	o.add("http.plan_overhead_ms", mean(rtt)-daemonMean, "ms",
		fmt.Sprintf("mean client round trip %.4f − daemon service.plan.latency_ns mean %.4f, %d plans → latency_ms (serve-plan)", mean(rtt), daemonMean, served.Count))
	o.add("service.admission_wait_ms", median(admission), "ms",
		fmt.Sprintf("p50 of service.req.admission over the last %d plan requests → tail_ms (serve-plan)", len(admission)))
	o.add("loadgen.late_p99_ms", percentile(msAll(late), 0.99), "ms", "open loop lateness; validates the run")
	o.add("partition.solves", o.metrics["partition.solves"], "count", "traced replay")
	o.add("partition.dp_cells", o.metrics["partition.dp_cells"], "count", "traced replay")
	o.add("partition.exact_path_share", o.metrics["partition.exact_path_share"], "ratio", "Optimize calls on the exact rung")
	o.add("obs.trace_overhead_ratio", o.metrics["obs.trace_overhead_ratio"], "ratio",
		fmt.Sprintf("traced replay %.3f s ÷ untraced %.3f s", traced.Seconds(), plain.Seconds()))
	return writeTrace(c, rec)
}

// replayServe registers the suite with an in-process service and
// serves servePlanReplays plans for group through service.PlanFor, each
// checked against the reference; then it times the plan path's own
// calls for as many requests.
func replayServe(rec *recorder, o *outcome, oracle *planOracle, suite []suiteProfile, dir string, group []string) (solveStats, error) {
	var st solveStats
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return st, err
	}
	defer store.Close()
	svc, err := service.New(service.DefaultConfig(), store)
	if err != nil {
		return st, err
	}
	defer svc.Close()
	for _, p := range suite {
		var prof profileio.Profile
		rec.do("profileio.read", func() { prof, err = profileio.Read(bytes.NewReader(p.body)) })
		if err != nil {
			return st, err
		}
		rec.do("service.register", func() { err = svc.Register(context.Background(), p.name, prof) })
		if err != nil {
			return st, err
		}
		var fp footprint.Footprint
		rec.do("footprint.new", func() { fp = footprint.New(prof.Reuse) })
		rec.do("mrc.from_footprint", func() { mrc.FromFootprint(p.name, fp, units, blocksPerUnit, prof.Rate) })
	}
	ctx := context.Background()
	for i := 0; i < servePlanReplays; i++ {
		var plan service.Plan
		rec.do("service.plan_for", func() { plan, err = svc.PlanFor(ctx, group, 0) })
		if err != nil {
			return st, err
		}
		var body bytes.Buffer
		rec.do("service.plan_encode", func() {
			enc := json.NewEncoder(&body)
			enc.SetIndent("", "  ")
			err = enc.Encode(plan)
		})
		if err != nil {
			return st, err
		}
		o.attempted++
		if msg := oracle.check(body.Bytes(), group); msg != "" {
			o.failed++
			o.mismatch("in-process plan: %s", msg)
		}
	}
	for i := 0; i < servePlanReplays; i++ {
		id := rec.begin("plan.path")
		curves := make([]mrc.Curve, len(group))
		for j, name := range group {
			rec.do("service.curve_for", func() { curves[j], err = svc.CurveFor(name, 0) })
			if err != nil {
				return st, err
			}
		}
		var sol partition.Solution
		rec.do("partition.optimize", func() { sol, err = partition.Optimize(partition.Problem{Curves: curves, Units: units}) })
		if err != nil {
			return st, err
		}
		rec.do("service.input_digest", func() { service.InputDigest(group, curves, units) })
		rec.end(id)
		st.optimizes++
		if sol.SolverPath == "exact" {
			st.exact++
		}
	}
	return st, nil
}

// churnTraced is churn's traced run: an in-process replay of the seeded
// mutation sequence through the same layers the daemon runs per
// mutation — profile encode and parse, the durable store, curve
// derivation — and per epoch — the warm-start re-solve, digest, diff,
// audit append, feed publish and delivery to a subscriber. The cold
// solve of each epoch is timed beside the warm one and must match it
// bit for bit; the final plan must match the reference. The replay runs
// untraced, then traced; their wall times give obs.trace_overhead_ratio.
func churnTraced(c *config, o *outcome) error {
	suite, err := loadSuite(c)
	if err != nil {
		return err
	}
	oracle := newPlanOracle(suite)
	var st churnStats
	rec, reg := newRecorder(), obs.NewRegistry()
	plain, traced, err := overhead(func(r *recorder) error {
		var err error
		if r != nil {
			obs.Enable(reg)
			defer obs.Enable(nil)
			st, err = replayChurn(r, o, oracle, c, suite, filepath.Join(c.work, "replay-traced"))
			return err
		}
		dir, err := os.MkdirTemp(c.work, "replay-plain-")
		if err != nil {
			return err
		}
		_, err = replayChurn(nil, o, oracle, c, suite, dir)
		return err
	}, rec)
	if err != nil {
		return err
	}
	counters := reg.Snapshot().Counters

	o.metrics["obs.trace_overhead_ratio"] = traced.Seconds() / plain.Seconds()
	o.metrics["partition.exact_path_share"] = float64(st.exact) / float64(st.epochs)
	o.metrics["partition.solves"] = float64(counters["partition.solves"])
	o.metrics["partition.dp_cells"] = float64(counters["partition.dp_cells"])
	layerMetrics(o, rec.selfTimes(), []layerRow{
		{"profileio.write", "latency_ms (churn)"},
		{"profileio.read", "latency_ms, tail_ms (churn)"},
		{"service.store.put", "latency_ms, tail_ms (churn)"},
		{"service.store.delete", "latency_ms (churn)"},
		{"footprint.new", "latency_ms (churn)"},
		{"mrc.from_footprint", "latency_ms (churn)"},
		{"service.reopt_solve", "latency_ms, tail_ms (churn)"},
		{"partition.optimize", "latency_ms (churn)"},
		{"service.input_digest", "latency_ms (churn)"},
		{"service.plan_diff", "latency_ms (churn)"},
		{"service.audit.append", "latency_ms, tail_ms (churn)"},
		{"service.feed.publish", "latency_ms (churn)"},
		{"service.feed.delivery", "latency_ms (churn)"},
	})
	o.add("service.reopt.epochs", float64(st.epochs), "count", "one per mutation")
	o.add("service.reopt.warm_reused_share", float64(st.reused)/float64(st.layers), "ratio", "warm-start layers reused ÷ layers solved")
	o.add("service.plan.units_moved", float64(st.moved), "count", "sum over epoch diffs")
	o.add("service.store.compactions", float64(counters["service.store.compactions"]), "count", "tail_ms (churn)")
	o.add("service.audit.compactions", float64(counters["service.audit.compactions"]), "count", "tail_ms (churn)")
	o.add("partition.solves", o.metrics["partition.solves"], "count", "traced replay")
	o.add("partition.dp_cells", o.metrics["partition.dp_cells"], "count", "traced replay")
	o.add("partition.exact_path_share", o.metrics["partition.exact_path_share"], "ratio", "cold Optimize calls on the exact rung")
	o.add("obs.trace_overhead_ratio", o.metrics["obs.trace_overhead_ratio"], "ratio",
		fmt.Sprintf("traced replay %.3f s ÷ untraced %.3f s", traced.Seconds(), plain.Seconds()))
	return writeTrace(c, rec)
}

// overhead runs replay untraced, traced with rec, and untraced again,
// and returns the mean untraced wall time and the traced one; the
// untraced runs on both sides cancel warm-up and drift.
func overhead(replay func(*recorder) error, rec *recorder) (plain, traced time.Duration, err error) {
	for _, r := range []*recorder{nil, rec, nil} {
		t0 := time.Now()
		if err := replay(r); err != nil {
			return 0, 0, err
		}
		if r == nil {
			plain += time.Since(t0) / 2
		} else {
			traced = time.Since(t0)
		}
	}
	return plain, traced, nil
}

// churnStats are the counts a churn replay accumulates.
type churnStats struct {
	epochs, exact, reused, layers, moved int
}

// replayChurn runs the set-up registrations and churnReplayCycles
// cycles of seeded mutations in process, publishing one epoch per
// mutation.
func replayChurn(rec *recorder, o *outcome, oracle *planOracle, c *config, suite []suiteProfile, dir string) (churnStats, error) {
	var st churnStats
	profiles := map[string]profileio.Profile{}
	for _, p := range suite {
		prof, err := profileio.Read(bytes.NewReader(p.body))
		if err != nil {
			return st, err
		}
		profiles[p.name] = prof
	}
	store, err := service.OpenStore(filepath.Join(dir, "store"), 0)
	if err != nil {
		return st, err
	}
	defer store.Close()
	audit, err := service.OpenAuditLog(filepath.Join(dir, "audit"), 0, 0)
	if err != nil {
		return st, err
	}
	defer audit.Close()
	feed := service.NewChangeFeed(0)
	defer feed.Close()

	// The subscriber runs on its own goroutine, as an SSE handler does,
	// and reports when each epoch reached it.
	type delivery struct {
		epoch int64
		at    time.Time
	}
	sub := feed.Subscribe()
	delivered := make(chan delivery, 1) // the writer waits for each epoch
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sub.Close()
		for {
			recs, _, err := sub.Next(ctx)
			if err != nil {
				return
			}
			at := time.Now()
			for _, r := range recs {
				select {
				case delivered <- delivery{r.Provenance.Epoch, at}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	defer wg.Wait()
	defer cancel()

	gen := newMutationGen(c.seed, 0, suiteNames())
	inc := partition.NewIncremental(units)
	curves := map[string]mrc.Curve{}
	var order []string
	var prev *service.Plan
	muts := gen.initial()
	for _, m := range muts {
		gen.apply(m)
	}
	for i := 0; i < churnReplayCycles; i++ {
		cyc := gen.cycle()
		for _, m := range cyc {
			gen.apply(m)
		}
		muts = append(muts, cyc...)
	}
	gen = newMutationGen(c.seed, 0, suiteNames())
	for _, m := range muts {
		gen.apply(m)
		o.attempted++
		id := rec.begin("churn.mutation")
		if m.del {
			rec.do("service.store.delete", func() { err = store.Delete(m.name) })
			delete(curves, m.name)
			order = slices.DeleteFunc(order, func(n string) bool { return n == m.name })
		} else {
			var buf bytes.Buffer
			rec.do("profileio.write", func() { err = profileio.Write(&buf, profiles[m.name]) })
			if err != nil {
				return st, err
			}
			var prof profileio.Profile
			rec.do("profileio.read", func() { prof, err = profileio.Read(&buf) })
			if err != nil {
				return st, err
			}
			rec.do("service.store.put", func() { err = store.Put(m.name, prof) })
			if err != nil {
				return st, err
			}
			var fp footprint.Footprint
			rec.do("footprint.new", func() { fp = footprint.New(prof.Reuse) })
			var cv mrc.Curve
			rec.do("mrc.from_footprint", func() { cv = mrc.FromFootprint(m.name, fp, units, blocksPerUnit, prof.Rate) })
			cv.Accesses = int64(float64(cv.Accesses) * prof.Rate)
			if _, known := curves[m.name]; !known {
				order = append(order, m.name)
			}
			curves[m.name] = cv
		}
		rec.end(id)
		if err != nil {
			return st, err
		}

		id = rec.begin("churn.epoch")
		group := make([]mrc.Curve, len(order))
		for i, n := range order {
			group[i] = curves[n]
		}
		var warm, cold partition.Solution
		var reused int
		rec.do("service.reopt_solve", func() {
			if reused, err = inc.Rebase(ctx, group); err == nil {
				warm, err = inc.Solve()
			}
		})
		if err != nil {
			return st, err
		}
		rec.do("partition.optimize", func() { cold, err = partition.Optimize(partition.Problem{Curves: group, Units: units}) })
		if err != nil {
			return st, err
		}
		if msg := diffSolution(servedPlan{Alloc: warm.Alloc, Objective: warm.Objective, GroupMissRatio: warm.GroupMissRatio, MissRatios: warm.MissRatios}, cold); msg != "" {
			o.failed++
			o.mismatch("epoch %d: warm-start solve differs from cold Optimize: %s", st.epochs+1, msg)
		}
		var digest string
		rec.do("service.input_digest", func() { digest = service.InputDigest(order, group, units) })
		plan := &service.Plan{
			Epoch: int64(st.epochs + 1), Tenants: append([]string(nil), order...), Units: units,
			Alloc: warm.Alloc, Objective: warm.Objective, GroupMissRatio: warm.GroupMissRatio, MissRatios: warm.MissRatios,
		}
		var diff service.PlanDiff
		rec.do("service.plan_diff", func() { diff = service.ComputePlanDiff(prev, plan) })
		er := service.EpochRecord{
			Provenance: service.PlanProvenance{Epoch: plan.Epoch, Cause: service.CauseChurn, InputDigest: digest, SolverPath: warm.SolverPath},
			Diff:       diff, Tenants: plan.Tenants, Alloc: plan.Alloc, Units: units,
		}
		rec.do("service.audit.append", func() { err = audit.Append(er) })
		if err != nil {
			return st, err
		}
		published := time.Now()
		rec.do("service.feed.publish", func() { feed.Publish(er) })
		rec.end(id)
		var d delivery
		select {
		case d = <-delivered:
		case <-time.After(epochTimeout):
			return st, fmt.Errorf("feed did not deliver epoch %d within %v", plan.Epoch, epochTimeout)
		}
		if d.epoch != plan.Epoch {
			o.mismatch("feed delivered epoch %d, want %d", d.epoch, plan.Epoch)
		}
		rec.add("service.feed.delivery", 2, published, d.at)

		prev = plan
		st.epochs++
		st.reused += reused
		st.layers += len(group)
		st.moved += diff.UnitsMoved
		if cold.SolverPath == "exact" {
			st.exact++
		}
	}
	body, err := json.Marshal(prev)
	if err != nil {
		return st, err
	}
	if msg := oracle.check(body, gen.expected()); msg != "" {
		o.failed++
		o.mismatch("final in-process epoch plan: %s", msg)
	}
	return st, nil
}
