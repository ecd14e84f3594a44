package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around a public function of the program. Parent is the index of the
// enclosing span in the recorder (-1 for a root); Lane separates
// concurrent timelines (the change-feed subscriber runs on its own).
type span struct {
	Name       string
	Parent     int
	Lane       int
	Start, End time.Duration
}

// A recorder keeps spans in memory while a traced replay runs and
// writes them once at the end. A nil recorder records nothing, which
// is how the same replay code runs untraced.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// add records an already-measured span on another lane, such as a
// delivery seen by a concurrent subscriber.
func (r *recorder) add(name string, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Parent: -1, Lane: lane, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// layerStat is one layer's self time per call and its call count.
type layerStat struct {
	Self  []float64 // ms per call
	Calls int
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the durations of its direct children, which on one lane nest
// strictly inside it.
func (r *recorder) selfTimes() map[string]*layerStat {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Self = append(st.Self, ms(s.End-s.Start-child[i]))
		st.Calls++
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// ("X" complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (r *recorder) writeChromeTrace(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent},
		})
	}
	sort.SliceStable(events[1:], func(i, j int) bool { return events[1+i].TS < events[1+j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// layerRow names a layer span and the end-to-end metric it should move.
type layerRow struct {
	span  string
	moves string
}

// layerMetrics reports each layer's median self time per call and its
// call count, and sets the JSON metric "<span>_ms" for every layer.
func layerMetrics(o *outcome, layers map[string]*layerStat, rows []layerRow) {
	for _, r := range rows {
		st := layers[r.span]
		if st == nil {
			continue
		}
		o.metrics[r.span+"_ms"] = median(st.Self)
		o.add(r.span+"_ms", median(st.Self), "ms", fmt.Sprintf("p50 self, %d calls → %s", st.Calls, r.moves))
	}
}

// writeTrace writes the run's spans where later runs keep them, named
// by workload and seed.
func writeTrace(c *config, rec *recorder) error {
	dir := filepath.Join(filepath.Dir(c.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err := rec.writeChromeTrace(path, "perfbench "+c.workload); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (Chrome trace_event JSON)\n", len(rec.spans), path)
	return nil
}
