package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the spans one run keeps in memory (about 80 MB); later
// spans are counted as dropped instead.
const maxSpans = 1 << 20

// span is one timed interval: an operation the benchmark issued, a phase,
// or a device call. Parent is the enclosing span's id (0 for none); all
// spans of one operation share its id through Parent.
type span struct {
	id, parent int64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
	ids     atomic.Int64
	// parent is the span device calls attach to: the enclosing phase, or
	// the operation itself where a single writer runs alone.
	parent atomic.Int64
}

func newTracer() *tracer { return &tracer{} }

// newID allocates a span id, so children can name it before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a pre-allocated id.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// setParent makes later device spans children of id.
func (t *tracer) setParent(id int64) {
	if t != nil {
		t.parent.Store(id)
	}
}

// byParent groups the spans by their parent id.
func (t *tracer) byParent() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range t.spans {
		out[s.parent] = append(out[s.parent], s)
	}
	return out
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [start, end) the spans cover, counting
// overlapping spans once.
func covered(spans []span, start, end time.Time) time.Duration {
	var total time.Duration
	var cur time.Time // end of the covered prefix
	for _, s := range sortedByStart(spans) {
		a, b := s.start, s.end
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if a.Before(cur) {
			a = cur
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

func sortedByStart(spans []span) []span {
	out := append([]span(nil), spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// write stores the spans as one JSON object per line, times in
// nanoseconds from the first span's start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	for _, s := range t.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.name, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
