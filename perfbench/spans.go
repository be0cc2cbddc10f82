package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// the operation's root span has Parent -1. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(op, parent int, name string, f func()) {
	id := t.begin(op, parent, name)
	f()
	t.end(id)
}

// add records a span measured elsewhere (server-side job timestamps).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, each clipped to
// [lo, hi].
func unionLen(iv []interval, lo, hi int64) int64 {
	var c []interval
	for _, x := range iv {
		if x.lo < lo {
			x.lo = lo
		}
		if x.hi > hi {
			x.hi = hi
		}
		if x.hi > x.lo {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, curLo, curHi int64
	for i, x := range c {
		if i == 0 || x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
		} else if x.hi > curHi {
			curHi = x.hi
		}
	}
	return total + curHi - curLo
}

// spanSummary is what the per-layer metrics need from a traced run.
type spanSummary struct {
	self     map[string]time.Duration // summed self time per span name
	calls    map[string]int           // calls per span name
	opWall   time.Duration            // summed root-span durations
	covered  time.Duration            // summed union of non-root spans per op
	rootWall []float64                // each op's root duration in ms
}

// summarize computes self times (a span's duration minus the part of it
// its children cover) and, per operation, how much of the root span the
// layer spans cover.
func (t *tracer) summarize() spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	byOp := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			byOp[s.Op] = append(byOp[s.Op], interval{s.Start, s.End})
		}
	}
	sum := spanSummary{self: map[string]time.Duration{}, calls: map[string]int{}}
	for _, s := range t.spans {
		self := s.End - s.Start - unionLen(children[s.ID], s.Start, s.End)
		if s.Parent < 0 {
			sum.opWall += time.Duration(s.End - s.Start)
			sum.covered += time.Duration(unionLen(byOp[s.Op], s.Start, s.End))
			sum.rootWall = append(sum.rootWall, ms(time.Duration(s.End-s.Start)))
			continue
		}
		sum.self[s.Name] += time.Duration(self)
		sum.calls[s.Name]++
	}
	return sum
}
