package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"slices"
	"time"
)

// Shape of churn. Set-up registers all 16 programs; then the writer
// runs whole cycles: delete cycleDeletes tenants down to minActive,
// register them again up to 16, and replace the survivors, so every
// cycle uploads each program exactly once and solves epochs for every
// group size from minActive to 16. The seed picks only the order.
// maxEpochs keeps a run inside the daemon's default audit retention
// (256 records), so the history oracle can demand every delivered
// epoch.
const (
	minActive    = 4
	maxEpochs    = 240
	epochTimeout = 30 * time.Second
)

// A mutation registers or replaces (put) or unregisters (delete) one
// suite program as a tenant of the same name.
type mutation struct {
	del  bool
	name string
}

// mutationGen draws the seeded mutation sequence and tracks the tenant
// set it leaves.
type mutationGen struct {
	r      *rand.Rand
	names  []string
	active []string
}

// newMutationGen returns the generator for one daemon round; rounds
// draw independent orders from the seed.
func newMutationGen(seed, round uint64, names []string) *mutationGen {
	return &mutationGen{r: rng(seed, 16+round), names: names}
}

// initial returns the set-up registrations of every program, in seeded
// order, not yet applied.
func (g *mutationGen) initial() []mutation {
	var out []mutation
	for _, i := range g.r.Perm(len(g.names)) {
		out = append(out, mutation{name: g.names[i]})
	}
	return out
}

// cycle returns one cycle's mutations, not yet applied, starting from
// the full set.
func (g *mutationGen) cycle() []mutation {
	order := append([]string(nil), g.active...)
	g.r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	down, keep := order[:len(order)-minActive], order[len(order)-minActive:]
	var out []mutation
	for _, n := range down {
		out = append(out, mutation{del: true, name: n})
	}
	for _, i := range g.r.Perm(len(down)) {
		out = append(out, mutation{name: down[i]})
	}
	for _, n := range keep {
		out = append(out, mutation{name: n})
	}
	return out
}

func (g *mutationGen) apply(m mutation) mutation {
	i := slices.Index(g.active, m.name)
	switch {
	case m.del:
		g.active = slices.Delete(g.active, i, i+1)
	case i < 0:
		g.active = append(g.active, m.name)
	}
	return m
}

// expected is the tenant set the last mutation left.
func (g *mutationGen) expected() []string { return append([]string(nil), g.active...) }

// churnDaemon is one daemon under churn with its change-feed subscriber
// and everything the writer observed.
type churnDaemon struct {
	d      *daemon
	cancel context.CancelFunc
	feed   <-chan sseEvent
	bodies map[string][]byte

	events   []epochEvent
	expected [][]string
	// bad collects feed violations seen while waiting (gap markers,
	// unparsable events, timeouts); the oracles report them.
	bad []string

	attempted, failed int
	put, del, publish []time.Duration // ack latencies, and ack → epoch event
	effect            []time.Duration // sent → epoch event
}

// startChurn starts a daemon, subscribes to its change feed from the
// first epoch, and makes the initial registrations, each one waiting
// for its epoch. It returns the set-up time: process start to the
// epoch of the last initial registration.
func startChurn(c *config, dir string, bodies map[string][]byte, gen *mutationGen) (*churnDaemon, time.Duration, error) {
	d, err := startDaemon(c, dir, 1)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	feed, err := d.subscribe(ctx, 0)
	if err != nil {
		cancel()
		d.kill()
		return nil, 0, err
	}
	cd := &churnDaemon{d: d, cancel: cancel, feed: feed, bodies: bodies}
	for _, m := range gen.initial() {
		if !cd.mutate(gen.apply(m), gen.expected()) {
			_, _ = cd.close() // the failed registration is the error to report
			return nil, 0, fmt.Errorf("initial registration of %s failed: %v", m.name, cd.bad)
		}
	}
	return cd, time.Since(d.started), nil
}

// mutate sends one mutation, then waits for the epoch event that
// reflects it. It reports whether the mutation was acknowledged and
// published; the writer stops at the first one that was not.
func (cd *churnDaemon) mutate(m mutation, want []string) bool {
	cd.attempted++
	method, body := "PUT", cd.bodies[m.name]
	if m.del {
		method, body = "DELETE", nil
	}
	sent := time.Now()
	status, resp, err := cd.d.do(method, "/v1/tenants/"+m.name, body)
	ack := time.Now()
	if err != nil || status != http.StatusOK {
		cd.failed++
		cd.bad = append(cd.bad, fmt.Sprintf("%s %s: status %d, %v: %s", method, m.name, status, err, resp))
		return false
	}
	cd.expected = append(cd.expected, want)
	timeout := time.NewTimer(epochTimeout)
	defer timeout.Stop()
	select {
	case ev, ok := <-cd.feed:
		switch {
		case !ok:
			cd.bad = append(cd.bad, "change feed closed")
		case ev.kind != "epoch":
			cd.bad = append(cd.bad, fmt.Sprintf("feed sent a %q event", ev.kind))
		default:
			rec, err := parseEpoch(ev.data)
			if err != nil {
				cd.bad = append(cd.bad, fmt.Sprintf("epoch event does not parse: %v", err))
				break
			}
			cd.events = append(cd.events, rec)
			if m.del {
				cd.del = append(cd.del, ack.Sub(sent))
			} else {
				cd.put = append(cd.put, ack.Sub(sent))
			}
			cd.publish = append(cd.publish, max(0, ev.at.Sub(ack)))
			cd.effect = append(cd.effect, ev.at.Sub(sent))
			return true
		}
	case <-timeout.C:
		cd.bad = append(cd.bad, fmt.Sprintf("no epoch within %v of %s %s", epochTimeout, method, m.name))
	}
	cd.failed++
	return false
}

// verify runs the churn oracles outside the timed window: no stray
// events after the last mutation, one epoch per mutation with the
// expected tenant sets, history equal to the delivered events, and the
// final plan bit-identical to the reference solve.
func (cd *churnDaemon) verify(o *outcome, oracle *planOracle, final []string) {
	time.Sleep(200 * time.Millisecond)
	for drained := false; !drained; {
		select {
		case ev, ok := <-cd.feed:
			if ok {
				cd.bad = append(cd.bad, fmt.Sprintf("unexpected %q event after the last mutation", ev.kind))
			} else {
				drained = true
			}
		default:
			drained = true
		}
	}
	for _, b := range cd.bad {
		o.mismatch("churn feed: %s", b)
	}
	for _, b := range checkEpochs(cd.events, cd.expected) {
		o.mismatch("churn epochs: %s", b)
	}
	var hist struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := cd.d.getJSON("/v1/plan/history", &hist); err != nil {
		o.mismatch("churn history: %v", err)
	} else {
		for _, b := range checkHistory(hist.Events, cd.events) {
			o.mismatch("churn history: %s", b)
		}
	}
	status, body, err := cd.d.do("GET", "/v1/plan", nil)
	switch {
	case err != nil || status != http.StatusOK:
		o.mismatch("final plan: status %d, %v", status, err)
	default:
		if msg := oracle.check(body, final); msg != "" {
			o.mismatch("final plan: %s", msg)
		}
	}
}

// runCycles runs whole mutation cycles until end has passed, at least
// one, and returns each completed cycle's mutation rate. It stops early
// at the first mutation that fails, and before a cycle that would
// outgrow maxEpochs.
func (cd *churnDaemon) runCycles(gen *mutationGen, end time.Time) []float64 {
	var rates []float64
	for len(rates) == 0 || time.Now().Before(end) {
		muts := gen.cycle()
		if len(cd.events)+len(muts) > maxEpochs {
			return rates
		}
		start := time.Now()
		for _, m := range muts {
			if !cd.mutate(gen.apply(m), gen.expected()) {
				return rates
			}
		}
		rates = append(rates, float64(len(muts))/time.Since(start).Seconds())
	}
	return rates
}

// close ends the subscription and stops the daemon, returning its peak
// RSS in MiB.
func (cd *churnDaemon) close() (float64, error) {
	cd.cancel()
	for range cd.feed {
	}
	return cd.d.stop()
}

// churn is the end-to-end churn workload.
func churn(c *config, o *outcome) error {
	suite, err := loadSuite(c)
	if err != nil {
		return err
	}
	oracle := newPlanOracle(suite)
	bodies := map[string][]byte{}
	for _, p := range suite {
		bodies[p.name] = p.body
	}

	// Each round starts a fresh daemon, sets it up, and runs whole
	// cycles for an equal share of the window. The rate is the median
	// over all cycles, so a burst of load from elsewhere on the host
	// spoils a cycle, not the run. The latency percentiles instead pool
	// every cycle mutation of the run: a cycle's own p90 sits between two
	// of the largest profiles and jumps a step whenever one compaction or
	// slow request lands in the cycle (README.md).
	share := c.seconds / setupRounds
	var setups, rss, effect, rates []float64
	var put, del, publish []time.Duration
	for i := 0; i < setupRounds; i++ {
		gen := newMutationGen(c.seed, uint64(i), suiteNames())
		cd, setup, err := startChurn(c, filepath.Join(c.work, fmt.Sprintf("daemon-%d", i)), bodies, gen)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		setupOps := len(cd.effect)
		rates = append(rates, cd.runCycles(gen, time.Now().Add(share))...)
		cd.verify(o, oracle, gen.expected())
		o.attempted += cd.attempted
		o.failed += cd.failed
		peak, err := cd.close()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		effect = append(effect, msAll(cd.effect[setupOps:])...)
		put = append(put, cd.put...)
		del = append(del, cd.del...)
		publish = append(publish, cd.publish...)
	}

	ops := median(rates)
	p50, p90 := percentile(effect, 0.50), percentile(effect, 0.90)
	o.metrics["setup_s"] = median(setups)
	o.metrics["latency_ms"] = p50
	o.metrics["tail_ms"] = p90
	o.metrics["ops_per_s"] = ops
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["ok_ratio"] = 1 - float64(o.failed)/float64(o.attempted)

	o.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d: start → ready + %d registrations, each published", setupRounds, len(suite)))
	o.add("effect_p50_ms", p50, "ms", fmt.Sprintf("mutation sent → its epoch event; %d mutations of %d cycles", len(effect), len(rates)))
	o.add("effect_p90_ms", p90, "ms", "")
	o.add("effect_p99_ms", percentile(effect, 0.99), "ms", "")
	o.add("put_p50_ms", percentile(msAll(put), 0.50), "ms", fmt.Sprintf("PUT sent → ack, %d PUTs (incl. set-up)", len(put)))
	o.add("put_p90_ms", percentile(msAll(put), 0.90), "ms", "")
	o.add("delete_p50_ms", percentile(msAll(del), 0.50), "ms", fmt.Sprintf("DELETE sent → ack, %d DELETEs", len(del)))
	o.add("publish_p50_ms", percentile(msAll(publish), 0.50), "ms", "ack → matching SSE epoch event")
	o.add("publish_p90_ms", percentile(msAll(publish), 0.90), "ms", "")
	o.add("churn_ops_per_s", ops, "1/s", "acknowledged-and-published mutations; median of cycles")
	o.add("peak_rss_mb", median(rss), "MiB", fmt.Sprintf("median over %d daemons", setupRounds))
	o.add("fail_ratio", float64(o.failed)/float64(o.attempted), "ratio", fmt.Sprintf("%d of %d", o.failed, o.attempted))
	return nil
}
