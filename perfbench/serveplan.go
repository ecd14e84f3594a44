package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape of serve-plan: daemon rounds per run (setup_s is the
// median of their set-ups), and the open loop's fixed rate, about a
// sixth of the closed-loop capacity at seed HEAD on a 2-CPU machine
// shared with the load generator (≈600 plans/s). At that load a plan
// seldom queues behind another, so the open loop's tail measures
// service time, and a host busy with other guests slows it rather than
// pushing it into a backlog.
const (
	setupRounds    = 3
	blocksPerRound = 3
	openLoopRate   = 100.0 // requests per second
	warmup         = 500 * time.Millisecond
)

// A sample is one timed request. due is when an open loop scheduled it
// (equal to sent in a closed loop).
type sample struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// setupServe starts a daemon and registers the 16 suite profiles, one
// at a time, then waits until the background plan covers all of them.
// It returns the set-up time: process start to that plan.
func setupServe(c *config, suite []suiteProfile, dir string) (*daemon, time.Duration, error) {
	d, err := startDaemon(c, dir, c.nproc)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, len(suite))
	for i, p := range suite {
		names[i] = p.name
		status, b, err := d.do("PUT", "/v1/tenants/"+p.name, p.body)
		if err != nil || status != http.StatusOK {
			d.kill()
			return nil, 0, fmt.Errorf("register %s: status %d, %v: %s", p.name, status, err, b)
		}
	}
	epoch, err := waitPlan(d, names)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	setup := time.Since(d.started)
	if err := quiesce(d, epoch); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, setup, nil
}

// waitPlan polls GET /v1/plan until the background plan covers exactly
// names, and returns its epoch.
func waitPlan(d *daemon, names []string) (int64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status, b, err := d.do("GET", "/v1/plan", nil)
		if err != nil {
			return 0, err
		}
		if status == http.StatusOK {
			var p servedPlan
			if err := json.Unmarshal(b, &p); err != nil {
				return 0, err
			}
			if !p.Degraded && sameSet(p.Tenants, names) {
				return p.Epoch, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("background plan did not cover the registered tenants within 60s")
}

// quiesce waits until no epoch follows since: registrations that landed
// while an epoch solved leave one more epoch behind, which must not run
// during the measurement.
func quiesce(d *daemon, since int64) error {
	for {
		var r struct {
			LastEpoch int64             `json:"last_epoch"`
			Events    []json.RawMessage `json:"events"`
		}
		if err := d.getJSON(fmt.Sprintf("/v1/plan/changes?since_epoch=%d&wait_ms=200", since), &r); err != nil {
			return err
		}
		if len(r.Events) == 0 {
			return nil
		}
		since = r.LastEpoch
	}
}

// planBody is a POST /v1/plan request for the named group.
func planBody(group []string) []byte {
	b, _ := json.Marshal(map[string]any{"tenants": group}) // strings always marshal
	return b
}

// openLoop sends requests due at a fixed rate for dur over at most
// workers connections and times each one from when it was due, so a
// stall also charges the requests queued behind it.
func openLoop(d *daemon, body []byte, rate float64, dur time.Duration, workers int) []sample {
	n := int(rate * dur.Seconds())
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{due: due, sent: time.Now()}
				s.status, s.body, s.err = d.do("POST", "/v1/plan", body)
				s.done = time.Now()
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps workers connections busy for dur, each sending its
// next request when the previous one completes.
func closedLoop(d *daemon, body []byte, dur time.Duration, workers int) []sample {
	end := time.Now().Add(dur)
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				s := sample{sent: time.Now()}
				s.due = s.sent
				s.status, s.body, s.err = d.do("POST", "/v1/plan", body)
				s.done = time.Now()
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// checkSamples runs the plan oracle over a phase's responses outside
// the timed window, counting attempts and failures into o.
// It drops each body once checked, so the load generator carries only
// timings from block to block.
func checkSamples(o *outcome, oracle *planOracle, group []string, samples []sample) {
	for i, s := range samples {
		samples[i].body = nil
		o.attempted++
		if !s.ok() {
			o.failed++
			continue
		}
		if msg := oracle.check(s.body, group); msg != "" {
			o.failed++
			o.mismatch("plan for %v: %s", group, msg)
		}
	}
}

// latencies returns the successful samples' times from due to done.
func latencies(samples []sample) (fromDue, late []time.Duration) {
	for _, s := range samples {
		if s.ok() {
			fromDue = append(fromDue, s.done.Sub(s.due))
			late = append(late, s.sent.Sub(s.due))
		}
	}
	return fromDue, late
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok() {
			n++
		}
	}
	return n
}

// servePlanGroups draws the two seeded 4-tenant groups: one for the
// open loop, one for the closed loop.
func servePlanGroups(c *config, suite []suiteProfile) (open, closed []string) {
	r := rng(c.seed, 1)
	for _, i := range pickGroup(r, len(suite), 4) {
		open = append(open, suite[i].name)
	}
	for _, i := range pickGroup(r, len(suite), 4) {
		closed = append(closed, suite[i].name)
	}
	return open, closed
}

// servePlan is the end-to-end serve-plan workload.
func servePlan(c *config, o *outcome) error {
	suite, err := loadSuite(c)
	if err != nil {
		return err
	}
	oracle := newPlanOracle(suite)
	openGroup, closedGroup := servePlanGroups(c, suite)

	// Each round starts a fresh daemon, sets it up, and gives it an
	// equal share of the window as blocks of open loop then closed loop.
	// Each metric is the median over all blocks, so a burst of load from
	// elsewhere on the host spoils a block, not the run.
	block := c.seconds / setupRounds / blocksPerRound / 2
	var setups, rss, p50s, p90s, rates []float64
	var open, closed []sample
	for i := 0; i < setupRounds; i++ {
		d, setup, err := setupServe(c, suite, filepath.Join(c.work, fmt.Sprintf("daemon-%d", i)))
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		warm := closedLoop(d, planBody(openGroup), warmup, c.nproc)
		checkSamples(o, oracle, openGroup, warm)
		for b := 0; b < blocksPerRound; b++ {
			ob := openLoop(d, planBody(openGroup), openLoopRate, block, c.nproc)
			cb := closedLoop(d, planBody(closedGroup), block, c.nproc)
			checkSamples(o, oracle, openGroup, ob)
			checkSamples(o, oracle, closedGroup, cb)
			lat, _ := latencies(ob)
			p50s = append(p50s, percentile(msAll(lat), 0.50))
			p90s = append(p90s, percentile(msAll(lat), 0.90))
			rates = append(rates, float64(countOK(cb))/block.Seconds())
			open = append(open, ob...)
			closed = append(closed, cb...)
		}
		peak, err := d.stop()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
	}

	lat, late := latencies(open)
	closedLat, _ := latencies(closed)
	rps := median(rates)

	o.metrics["setup_s"] = median(setups)
	o.metrics["latency_ms"] = median(p50s)
	o.metrics["tail_ms"] = median(p90s)
	o.metrics["ops_per_s"] = rps
	o.metrics["peak_rss_mb"] = median(rss)
	o.metrics["ok_ratio"] = 1 - float64(o.failed)/float64(o.attempted)

	o.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d: start → ready + 16 registrations + their plan", setupRounds))
	o.add("plan_p50_ms", median(p50s), "ms", fmt.Sprintf("open loop %.0f/s, from due time; median of %d blocks", openLoopRate, len(p50s)))
	o.add("plan_p90_ms", median(p90s), "ms", "open loop, from due time; median of blocks")
	o.add("plan_p99_ms", percentile(msAll(lat), 0.99), "ms", fmt.Sprintf("open loop, from due time; all %d requests", len(lat)))
	o.add("loadgen.late_p99_ms", percentile(msAll(late), 0.99), "ms", "how late the open loop sent")
	o.add("plan_rps", rps, "1/s", fmt.Sprintf("closed loop, %d connections, %d requests; median of blocks", c.nproc, len(closed)))
	o.add("closed_p50_ms", percentile(msAll(closedLat), 0.50), "ms", "closed loop round trip")
	o.add("peak_rss_mb", median(rss), "MiB", fmt.Sprintf("median over %d daemons", setupRounds))
	o.add("fail_ratio", float64(o.failed)/float64(o.attempted), "ratio", fmt.Sprintf("%d of %d", o.failed, o.attempted))
	return nil
}
