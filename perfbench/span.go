package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into one layer,
// made from the benchmark's own code. Spans of one operation (a lot, a
// certification, a job) share op; parent is the enclosing span's id, or
// -1 for a root.
type span struct {
	id, parent, op int
	name           string
	start, end     time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps a traced run's spans in memory until the run ends. A
// nil *recorder records nothing, so untraced code paths call it freely.
// It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{} }

// add records a finished span and returns its id (-1 when r is nil).
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	return id
}

// begin opens a span that end closes.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Now()
	return r.add(name, parent, op, now, now)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	spans := r.snapshot()
	kids := children(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.name] += s.dur() - covered(s, kids[s.id])
	}
	return out
}

// durations lists the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.snapshot() {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// uncoveredShare is the share of the root spans' wall clock that no leaf
// span covers: time the trace does not attribute to any named layer.
func (r *recorder) uncoveredShare() float64 {
	spans := r.snapshot()
	kids := children(spans)
	var total, cov time.Duration
	for _, s := range spans {
		if s.parent >= 0 {
			continue
		}
		var leaves []span
		var walk func(id int)
		walk = func(id int) {
			for _, k := range kids[id] {
				if len(kids[k.id]) == 0 {
					leaves = append(leaves, k)
				} else {
					walk(k.id)
				}
			}
		}
		walk(s.id)
		total += s.dur()
		cov += covered(s, leaves)
	}
	if total <= 0 {
		return 0
	}
	return float64(total-cov) / float64(total)
}

// children indexes spans by parent id.
func children(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// covered is the length of the union of the parts of ivs that lie
// inside s.
func covered(s span, ivs []span) time.Duration {
	type iv struct{ a, b time.Time }
	var xs []iv
	for _, k := range ivs {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			xs = append(xs, iv{a, b})
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].a.Before(xs[j].a) })
	var sum time.Duration
	var cur iv
	for i, x := range xs {
		switch {
		case i == 0:
			cur = x
		case x.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = x
		case x.b.After(cur.b):
			cur.b = x.b
		}
	}
	if len(xs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}
