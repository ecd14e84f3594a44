package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestChildSetBasic(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 4)
	cs.Child("acme").Counter("requests").Inc()
	cs.Child("acme").Counter("requests").Inc()
	cs.Child("beta").Counter("requests").Inc()

	snap := reg.Snapshot()
	if got := snap.Counters["svc.tenant.acme.requests"]; got != 2 {
		t.Fatalf("acme.requests = %d, want 2", got)
	}
	if got := snap.Counters["svc.tenant.beta.requests"]; got != 1 {
		t.Fatalf("beta.requests = %d, want 1", got)
	}
	if got := snap.Gauges["svc.tenant.labels"]; got != 2 {
		t.Fatalf("labels gauge = %d, want 2", got)
	}
	if _, ok := snap.Counters["svc.tenant.evicted"]; ok {
		t.Fatal("evicted counter present with no evictions")
	}

	// Same prefix returns the same set; the first capacity wins.
	if reg.ChildSet("svc.tenant.", 9999) != cs {
		t.Fatal("second ChildSet call returned a different set")
	}
}

// The acceptance criterion for bounded cardinality: a 10k-label flood
// leaves at most cap live labels, everything older absorbed into the
// overflow child with set-wide totals preserved exactly.
func TestChildSetFloodStaysCapped(t *testing.T) {
	const capN = 16
	const flood = 10_000
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", capN)
	for i := 0; i < flood; i++ {
		cs.Child(fmt.Sprintf("tenant%05d", i)).Counter("requests").Inc()
	}
	live, evicted := cs.Labels()
	if live > capN {
		t.Fatalf("live labels = %d, want <= %d", live, capN)
	}
	if evicted != flood-capN {
		t.Fatalf("evicted = %d, want %d", evicted, flood-capN)
	}

	snap := reg.Snapshot()
	var total int64
	series := 0
	for name, v := range snap.Counters {
		if strings.HasSuffix(name, ".requests") && strings.HasPrefix(name, "svc.tenant.") {
			total += v
			series++
		}
	}
	if total != flood {
		t.Fatalf("sum over all tenant series = %d, want %d (eviction must absorb, not drop)", total, flood)
	}
	// live labels + the overflow child is the entire series universe.
	if series != capN+1 {
		t.Fatalf("exported series = %d, want %d live + 1 overflow", series, capN+1)
	}
	if snap.Counters["svc.tenant.other.requests"] != flood-capN {
		t.Fatalf("overflow bucket = %d, want %d", snap.Counters["svc.tenant.other.requests"], flood-capN)
	}
	if snap.Counters["svc.tenant.evicted"] != flood-capN {
		t.Fatalf("evicted counter = %d, want %d", snap.Counters["svc.tenant.evicted"], flood-capN)
	}
}

func TestChildSetLRURecency(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 2)
	cs.Child("a").Counter("requests").Inc()
	cs.Child("b").Counter("requests").Inc()
	cs.Child("a").Counter("requests").Inc() // refresh a; b is now LRU
	cs.Child("c").Counter("requests").Inc() // evicts b

	snap := reg.Snapshot()
	if _, ok := snap.Counters["svc.tenant.b.requests"]; ok {
		t.Fatal("b should have been evicted (a was touched more recently)")
	}
	if got := snap.Counters["svc.tenant.a.requests"]; got != 2 {
		t.Fatalf("a.requests = %d, want 2 (recency refresh must keep the live series)", got)
	}
	if got := snap.Counters["svc.tenant.other.requests"]; got != 1 {
		t.Fatalf("overflow = %d, want b's count of 1", got)
	}
}

func TestChildSetHistogramAbsorb(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 1)
	bounds := []int64{10, 100}
	cs.Child("a").Histogram("latency_ns", bounds).Observe(5)
	cs.Child("a").Histogram("latency_ns", bounds).Observe(50)
	cs.Child("b").Histogram("latency_ns", bounds).Observe(500) // evicts a

	snap := reg.Snapshot()
	oh := snap.Histograms["svc.tenant.other.latency_ns"]
	if oh.Count != 2 || oh.Sum != 55 {
		t.Fatalf("absorbed histogram = count %d sum %d, want 2/55", oh.Count, oh.Sum)
	}
	bh := snap.Histograms["svc.tenant.b.latency_ns"]
	if bh.Count != 1 || bh.Sum != 500 {
		t.Fatalf("live histogram = count %d sum %d, want 1/500", bh.Count, bh.Sum)
	}
}

func TestChildSetSanitizeAndOverflowLabel(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 8)
	cs.Child("Team/Alpha!").Counter("requests").Inc()
	cs.Child("").Counter("requests").Inc()
	cs.Child(strings.Repeat("x", 500)).Counter("requests").Inc()
	// The reserved label addresses the overflow child directly and never
	// occupies a live slot.
	cs.Child(OverflowLabel).Counter("requests").Inc()
	cs.Child("OTHER").Counter("requests").Inc() // sanitizes to the reserved label

	snap := reg.Snapshot()
	if got := snap.Counters["svc.tenant.team_alpha_.requests"]; got != 1 {
		t.Fatalf("sanitized label series = %d, want 1", got)
	}
	if got := snap.Counters["svc.tenant._.requests"]; got != 1 {
		t.Fatalf("empty-label series = %d, want 1", got)
	}
	long := "svc.tenant." + strings.Repeat("x", maxLabelLen) + ".requests"
	if got := snap.Counters[long]; got != 1 {
		t.Fatalf("long label not truncated to %d bytes", maxLabelLen)
	}
	if got := snap.Counters["svc.tenant.other.requests"]; got != 2 {
		t.Fatalf("reserved-label series = %d, want 2", got)
	}
	if live, _ := cs.Labels(); live != 3 {
		t.Fatalf("live labels = %d, want 3 (reserved label must not take a slot)", live)
	}
}

func TestChildSetNilSafety(t *testing.T) {
	var reg *Registry
	cs := reg.ChildSet("svc.tenant.", 4)
	if cs != nil {
		t.Fatal("nil registry must hand out a nil set")
	}
	// The full chain must be callable without guards.
	cs.Child("a").Counter("requests").Inc()
	cs.Child("a").Histogram("latency_ns", DurationBuckets()).Observe(1)
	if live, evicted := cs.Labels(); live != 0 || evicted != 0 {
		t.Fatal("nil set reported labels")
	}
	var c *Child
	c.Counter("x").Inc()
	c.Histogram("y", nil).Observe(1)
}

func TestChildSetConcurrent(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 8)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 32 distinct labels across 8 live slots forces constant
				// eviction under contention.
				cs.Child(fmt.Sprintf("t%d", (g*perG+i)%32)).Counter("requests").Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasSuffix(name, ".requests") {
			total += v
		}
	}
	if total != goroutines*perG {
		t.Fatalf("total = %d, want %d", total, goroutines*perG)
	}
	if live, _ := cs.Labels(); live > 8 {
		t.Fatalf("live labels = %d, want <= 8", live)
	}
}

// A handle taken before its label is evicted must not lose updates: they
// land in the overflow child, where the label's earlier counts went.
func TestChildSetStaleHandleLandsInOverflow(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 1)
	a := cs.Child("a")
	ctr, hist := a.Counter("requests"), a.Histogram("latency_ns", []int64{10})
	ctr.Inc()
	cs.Child("b").Counter("requests").Inc() // evicts a
	ctr.Add(2)
	hist.Observe(5)

	snap := reg.Snapshot()
	if got := snap.Counters["svc.tenant.other.requests"]; got != 3 {
		t.Fatalf("overflow requests = %d, want 3 (1 absorbed + 2 through the stale handle)", got)
	}
	if got := snap.Histograms["svc.tenant.other.latency_ns"].Count; got != 1 {
		t.Fatalf("overflow histogram count = %d, want 1", got)
	}
	if _, ok := snap.Counters["svc.tenant.a.requests"]; ok {
		t.Fatal("evicted label still exported")
	}
}
