// Command perfbench is the repository's benchmark. It runs one named
// workload against binaries built from this checkout (cmd/partitiond,
// cmd/experiments, cmd/hotlprof), checks every output against an
// independent oracle, and prints one JSON result as its last line of
// standard output.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload serve-plan|churn|offline-tablei \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no benchmark tracing. With --trace 1 the benchmark replays the
// workload's calls in process, timing each call into a layer's public
// functions with spans kept in memory, and reports the per-layer
// metrics; the spans are written once at the end as Chrome trace_event
// JSON, and a per-layer table goes to standard error. README.md defines
// every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wServePlan = "serve-plan"
	wChurn     = "churn"
	wTableI    = "offline-tablei"
)

// The end-to-end metrics every workload reports with --trace 0. Their
// meaning per workload is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// The per-layer metrics every workload reports with --trace 1: the
// layers all three workloads call. Workload-specific layers appear in
// the standard-error table and the report file.
var perLayer = []struct{ name, unit string }{
	{"partition.optimize_ms", "ms"},
	{"partition.exact_path_share", "ratio"},
	{"partition.solves", "count"},
	{"partition.dp_cells", "count"},
	{"footprint.new_ms", "ms"},
	{"mrc.from_footprint_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout, the working directory
	bin      string // partitiond, experiments and hotlprof built by run.sh
	work     string // scratch directory for this invocation
	cache    string // input cache shared by invocations in one checkout
	nproc    int
}

// outcome is what a workload run measured and checked.
type outcome struct {
	mismatches []string // oracle failures; any one fails the run
	attempted  int
	failed     int
	metrics    map[string]float64
	// detail holds workload-specific figures for the standard-error
	// report; they are not part of the JSON result.
	detail []row
}

// row is one line of the standard-error report.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) add(name string, value float64, unit, note string) {
	o.detail = append(o.detail, row{name, value, unit, note})
}

func main() {
	var c config
	var trace int
	var seed int64
	var seconds int
	flag.StringVar(&c.workload, "workload", "", "workload: serve-plan, churn or offline-tablei")
	flag.Int64Var(&seed, "seed", 1, "seed for the workload's generated inputs")
	flag.IntVar(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	flag.Parse()
	c.seed = uint64(seed)
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	c.nproc = runtime.NumCPU()
	// The load generator shares the machine with what it measures; fewer
	// collections of its own heap mean fewer pauses in its timings.
	debug.SetGCPercent(400)
	if err := run(&c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c *config) error {
	switch c.workload {
	case wServePlan, wChurn, wTableI:
	default:
		return fmt.Errorf("unknown workload %q (want %s, %s or %s)", c.workload, wServePlan, wChurn, wTableI)
	}
	if c.seconds <= 0 {
		return errors.New("seconds must be positive")
	}
	// run.sh builds the binaries into .bench_build/perfbench/bin of the
	// checkout this runs from.
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	c.root, c.bin, c.cache = root, filepath.Join(base, "bin"), filepath.Join(base, "inputs")
	if c.work, err = os.MkdirTemp(base, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(c.work)
	describeEnv(c)

	var o outcome
	o.metrics = map[string]float64{}
	steal0, total0 := cpuSteal()
	switch {
	case c.workload == wServePlan && !c.trace:
		err = servePlan(c, &o)
	case c.workload == wServePlan:
		err = servePlanTraced(c, &o)
	case c.workload == wChurn && !c.trace:
		err = churn(c, &o)
	case c.workload == wChurn:
		err = churnTraced(c, &o)
	case !c.trace:
		err = tableI(c, &o)
	default:
		err = tableITraced(c, &o)
	}
	if err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		o.add("host.steal_share", float64(steal1-steal0)/float64(total1-total0), "ratio",
			"CPU time the hypervisor gave to other guests during the run (/proc/stat); validates the run")
	}
	return report(c, &o)
}

// report prints the standard-error table and the JSON result line, and
// fails the run on any oracle mismatch.
func report(c *config, o *outcome) error {
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	fmt.Fprintf(os.Stderr, "\n%s (seed %d, trace %v)\n", c.workload, c.seed, c.trace)
	for _, r := range o.detail {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
	metrics := map[string]any{}
	for _, m := range want {
		v, ok := o.metrics[m.name]
		switch {
		case ok && !math.IsNaN(v) && !math.IsInf(v, 0):
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		case len(o.mismatches) == 0:
			return fmt.Errorf("%s: metric %s was not measured", c.workload, m.name)
		}
		// A run that failed its oracles may stop before measuring.
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "ORACLE MISMATCH:", m)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(o.mismatches) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(o.mismatches) > 0 {
		return fmt.Errorf("%d oracle mismatches", len(o.mismatches))
	}
	return nil
}

// describeEnv records the run's environment on standard error: nproc,
// GOMAXPROCS, the Go toolchain, and the commit the binaries came from.
func describeEnv(c *config) {
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%v trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		c.workload, c.seed, c.seconds, c.trace, c.nproc, runtime.GOMAXPROCS(0), goVersion(), commit(c))
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return runtime.Version()
	}
	return strings.TrimSpace(strings.TrimPrefix(string(out), "go version "))
}

// commit names the source revision: git's HEAD when the checkout is
// the top of a repository, else the VCS stamp in this binary, else
// "unknown".
func commit(c *config) string {
	if out, err := exec.Command("git", "-C", c.root, "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		top, head, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
		if real, err := filepath.EvalSymlinks(c.root); err == nil && top == real {
			return head
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuSteal reads the steal and total jiffies from /proc/stat's cpu
// line; zeros where the file is missing.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
