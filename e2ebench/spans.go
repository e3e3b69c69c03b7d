package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the run it belongs to. depth is its nesting level
// under the traced run's root; async marks work off the blocking path
// (the WAL writer goroutine), which runs beside the span that caused it
// rather than inside it.
type span struct {
	name       string
	run        string
	parent     int32
	depth      int8
	async      bool
	start, end int64 // ns since the recorder's origin
}

// recorder keeps spans in memory until the run ends. With on false
// every wrapper still runs but records nothing: the difference between
// an on and an off pass is the tracing overhead.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// count sums, per name, the counts wrappers record next to their
	// spans (bytes written, events seen, ...).
	count map[string]float64
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), count: map[string]float64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its handle (-1 when recording is off).
func (r *recorder) begin(name, run string, parent int, depth int, async bool) int {
	if !r.on {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, run: run, parent: int32(parent), depth: int8(depth), async: async, start: t, end: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// add records a count at the same boundary as a span.
func (r *recorder) add(name string, v float64) {
	if !r.on {
		return
	}
	r.mu.Lock()
	r.count[name] += v
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(name, run string, parent, depth int, fn func()) {
	id := r.begin(name, run, parent, depth, false)
	fn()
	r.end(id)
}

// durations returns the durations of every closed span of a name, in ms.
func (r *recorder) durations(name string) samples {
	var out samples
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			out.add(float64(s.end-s.start) / 1e6)
		}
	}
	return out
}

// selfTimes partitions the root span's interval among the blocking
// spans: at every instant the time belongs to the deepest open span,
// the latest started among equals, so the self times of all spans sum
// exactly to the root's duration. With one thread of control this is a
// span's duration minus the part its children cover; where spans run
// in parallel (tools on several workers) each instant is still counted
// once. Async spans take no part. The root's own share is the time no
// named layer accounts for.
func (r *recorder) selfTimes(root int) map[int]int64 {
	type edge struct {
		t    int64
		open bool
		id   int
	}
	rs := r.spans[root]
	var edges []edge
	for i, s := range r.spans {
		if s.async || s.end < 0 || (i != root && (s.end <= rs.start || s.start >= rs.end)) {
			continue
		}
		edges = append(edges, edge{max(s.start, rs.start), true, i}, edge{min(s.end, rs.end), false, i})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open // close before open at the same instant
	})
	self := map[int]int64{}
	active := map[int]bool{}
	owner := func() int {
		best := -1
		for id := range active {
			if best < 0 || r.spans[id].depth > r.spans[best].depth ||
				(r.spans[id].depth == r.spans[best].depth && (r.spans[id].start > r.spans[best].start ||
					(r.spans[id].start == r.spans[best].start && id > best))) {
				best = id
			}
		}
		return best
	}
	last := rs.start
	for _, e := range edges {
		if e.t > last && len(active) > 0 {
			self[owner()] += e.t - last
		}
		last = max(last, e.t)
		if e.open {
			active[e.id] = true
		} else {
			delete(active, e.id)
		}
	}
	return self
}
