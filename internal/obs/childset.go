package obs

import (
	"container/list"
	"sync"
)

// This file is the bounded-cardinality pillar of the request-telemetry
// layer: per-label metric families (per-tenant RED series in the
// service) whose label space is capped. An unbounded map keyed by a
// client-supplied label is an OOM funnel — a tenant flood mints one
// series set per name — so a ChildSet keeps at most cap live labels in
// an LRU index and folds everything beyond it into a single "other"
// overflow child. Eviction is absorption, not deletion: the evicted
// label's counts merge into the overflow child, so totals across the
// set stay exact even while identities age out.
//
// Every update goes through the set's lock, the same lock eviction
// holds, so an update and the absorption of its label never interleave:
// an update through a handle whose label has since been absorbed lands
// in the overflow child, where the label's earlier counts went.

// DefaultChildSetCap bounds a child set's live label count when the
// caller passes a non-positive capacity. 256 labels × a handful of
// series each keeps a tenant-labeled family in the tens of kilobytes.
const DefaultChildSetCap = 256

// OverflowLabel is the reserved label of the overflow child. A real
// label that sanitizes to it shares the bucket (documented, not
// detected — the alternative is an unbounded collision map).
const OverflowLabel = "other"

// maxLabelLen truncates absurdly long labels before they become metric
// names; 48 bytes keeps full names readable in dashboards.
const maxLabelLen = 48

// A ChildSet is a bounded family of per-label children under one name
// prefix (which must end in "."; the obsname analyzer enforces that the
// prefix is a named constant). Obtain via Registry.ChildSet; all
// methods are safe for concurrent use and nil-safe end to end, so
// instrumentation chains reg.ChildSet(p, n).Child(l).Counter(s).Inc()
// without guarding.
type ChildSet struct {
	prefix string
	cap    int

	// mu guards the index and every family's metrics: updates, eviction
	// and snapshots all hold it.
	mu       sync.Mutex
	children map[string]*childEntry
	lru      *list.List // Front = most recently used; values are labels
	other    *Child
	evicted  int64 // labels absorbed into the overflow child
}

// childEntry pairs a child with its LRU element so a map hit refreshes
// recency in O(1).
type childEntry struct {
	child *Child
	elem  *list.Element
}

// A Child is one label's metric family: counters and histograms whose
// full names are prefix + label + "." + suffix. Its handles update it
// under the owning set's lock. A nil Child (from a nil set) hands out
// no-op handles.
type Child struct {
	cs       *ChildSet
	counters map[string]int64
	hists    map[string]*Histogram
	// absorbed is set when eviction folds this family into the overflow
	// child; later updates through old handles follow it there.
	absorbed bool
}

func newChild(cs *ChildSet) *Child {
	return &Child{cs: cs, counters: make(map[string]int64), hists: make(map[string]*Histogram)}
}

// ChildSet returns the child set registered under prefix, creating it
// with the given live-label capacity on first use (<= 0 means
// DefaultChildSetCap; later calls reuse the first creation's capacity,
// mirroring Histogram bounds). A nil registry returns a nil set.
func (r *Registry) ChildSet(prefix string, capacity int) *ChildSet {
	if r == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultChildSetCap
	}
	r.csMu.Lock()
	defer r.csMu.Unlock()
	cs := r.childSets[prefix]
	if cs == nil {
		cs = &ChildSet{
			prefix:   prefix,
			cap:      capacity,
			children: make(map[string]*childEntry),
			lru:      list.New(),
		}
		cs.other = newChild(cs)
		r.childSets[prefix] = cs
	}
	return cs
}

// Child returns the metric family for label, creating it on first use.
// The label is sanitized into a metric-name segment. When the set is at
// capacity, the least-recently-used label is absorbed into the overflow
// child to make room, so the live index never exceeds cap entries; the
// reserved OverflowLabel addresses the overflow child directly.
func (cs *ChildSet) Child(label string) *Child {
	if cs == nil {
		return nil
	}
	label = sanitizeLabel(label)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if label == OverflowLabel {
		return cs.other
	}
	if e, ok := cs.children[label]; ok {
		cs.lru.MoveToFront(e.elem)
		return e.child
	}
	if len(cs.children) >= cs.cap {
		back := cs.lru.Back()
		old := back.Value.(string)
		cs.other.absorb(cs.children[old].child)
		delete(cs.children, old)
		cs.lru.Remove(back)
		cs.evicted++
	}
	c := newChild(cs)
	cs.children[label] = &childEntry{child: c, elem: cs.lru.PushFront(label)}
	return c
}

// Labels reports the live label count (excluding the overflow child)
// and how many labels have been evicted into it.
func (cs *ChildSet) Labels() (live int, evicted int64) {
	if cs == nil {
		return 0, 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.children), cs.evicted
}

// ChildCounter is a handle on one counter of a Child. The zero value
// (from a nil Child) is a no-op.
type ChildCounter struct {
	c      *Child
	suffix string
}

// ChildHistogram is a handle on one histogram of a Child. The zero value
// (from a nil Child) is a no-op.
type ChildHistogram struct {
	c      *Child
	suffix string
	bounds []int64
}

// Counter returns the handle of the child's counter for suffix; the
// counter is created on its first update. Nil-safe.
func (c *Child) Counter(suffix string) ChildCounter {
	return ChildCounter{c: c, suffix: suffix}
}

// Histogram returns the handle of the child's histogram for suffix; the
// histogram is created on its first observation with the given bounds
// (later creations for the same suffix reuse the first one's bounds).
// Nil-safe.
func (c *Child) Histogram(suffix string, bounds []int64) ChildHistogram {
	return ChildHistogram{c: c, suffix: suffix, bounds: bounds}
}

// live returns the family an update through c must land in: c itself,
// or the overflow child once c has been absorbed. Called with cs.mu held.
func (c *Child) live() *Child {
	if c.absorbed {
		return c.cs.other
	}
	return c
}

// Add increments the counter by n.
func (h ChildCounter) Add(n int64) {
	if h.c == nil {
		return
	}
	cs := h.c.cs
	cs.mu.Lock()
	h.c.live().counters[h.suffix] += n
	cs.mu.Unlock()
}

// Inc increments the counter by one.
func (h ChildCounter) Inc() { h.Add(1) }

// Observe records one value.
func (h ChildHistogram) Observe(v int64) {
	if h.c == nil {
		return
	}
	cs := h.c.cs
	cs.mu.Lock()
	h.c.live().histogram(h.suffix, h.bounds).Observe(v)
	cs.mu.Unlock()
}

// histogram returns the family's histogram for suffix, creating it with
// bounds on first use. Called with cs.mu held.
func (c *Child) histogram(suffix string, bounds []int64) *Histogram {
	h := c.hists[suffix]
	if h == nil {
		h = newHistogram(bounds)
		c.hists[suffix] = h
	}
	return h
}

// absorb folds src's counts into c and marks src absorbed — the
// eviction path, called with cs.mu held. Histograms merge
// bucket-by-bucket when the bounds agree (they always do for one suffix
// created through one call site); on a mismatch the counts fold into
// the receiver's +Inf bucket rather than being dropped.
func (c *Child) absorb(src *Child) {
	for sfx, v := range src.counters {
		c.counters[sfx] += v
	}
	for sfx, h := range src.hists {
		c.histogram(sfx, h.bounds).merge(h)
	}
	src.counters, src.hists, src.absorbed = nil, nil, true
}

// snapshotInto folds every child's metrics into the flat snapshot maps
// under prefix+label+"."+suffix names, plus the set's own meta-series:
// <prefix>labels (live label gauge) and <prefix>evicted (absorption
// counter). Called from Registry.Snapshot with csMu held.
func (cs *ChildSet) snapshotInto(snap *Snapshot) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	fold := func(label string, c *Child) {
		base := cs.prefix + label + "."
		for sfx, v := range c.counters {
			snap.Counters[base+sfx] = v
		}
		for sfx, h := range c.hists {
			snap.Histograms[base+sfx] = h.summary()
		}
	}
	for label, e := range cs.children {
		fold(label, e.child)
	}
	fold(OverflowLabel, cs.other)
	snap.Gauges[cs.prefix+"labels"] = int64(len(cs.children))
	if cs.evicted > 0 {
		snap.Counters[cs.prefix+"evicted"] = cs.evicted
	}
}

// sanitizeLabel maps an arbitrary client-supplied label (tenant name)
// onto a metric-name segment: lowercase [a-z0-9_], non-empty, bounded
// length. Distinct labels can collide after sanitization; they then
// share a series, which is the documented trade for a bounded index.
func sanitizeLabel(label string) string {
	if label == "" {
		return "_"
	}
	b := make([]byte, 0, min(len(label), maxLabelLen))
	for i := 0; i < len(label) && len(b) < maxLabelLen; i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		case c >= 'A' && c <= 'Z':
			b = append(b, c-'A'+'a')
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}
