package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// chain through Parent; a root span has Parent 0.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans and derived per-event values in memory until the
// run ends. A nil *Tracer is the untraced run: every method is a no-op,
// so the seams cost one nil check when tracing is off.
type Tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu     sync.Mutex
	spans  []Span
	series map[string][]float64
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), series: make(map[string][]float64)}
}

// NewID allocates a span ID (0 when untraced).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Record stores a finished span.
func (t *Tracer) Record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Observe appends a value to a named series, for quantities measured at
// a seam that are not a span's own duration (queue waits, self time net
// of disk waits).
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.series[name] = append(t.series[name], v)
	t.mu.Unlock()
}

// Series returns a copy of a named series.
func (t *Tracer) Series(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.series[name]...)
}

// Durations returns the durations in ms of every span with this name.
func (t *Tracer) Durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// SelfTimes returns, for every span with this name, its duration minus
// the part of its interval its direct children cover, in ms.
func (t *Tracer) SelfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered(s, children[s.ID]))/1e6)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
			continue
		}
		curEnd = max(curEnd, hi)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// WriteSpans writes every span as one JSON object per line.
func (t *Tracer) WriteSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
