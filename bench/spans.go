package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory for the whole run and are written out once, at exit.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`    // spans of one pass over the inputs share it
	Parent int    `json:"parent"` // index of the span that caused this one; -1 at a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops"` // layer operations the call covered
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog collects spans. The walk records from one goroutine; the traced
// runs' wrappers record from whichever goroutine the program calls them on.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Run: l.run, Parent: parent})
	i := len(l.spans) - 1
	l.spans[i].Start = int64(time.Since(l.t0))
	return i
}

// end closes span i, which covered ops layer operations.
func (l *spanLog) end(i, ops int) {
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[i].End = now
	l.spans[i].Ops = ops
	l.mu.Unlock()
}

// timed records fn as one span of ops operations under parent.
func (l *spanLog) timed(name string, parent, ops int, fn func()) {
	i := l.begin(name, parent)
	fn()
	l.end(i, ops)
}

// durations returns the length in ns of every span of the name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// nsPerOp returns, for every span of the name, duration divided by the
// operations it covered.
func (l *spanLog) nsPerOp(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.Ops > 0 {
			out = append(out, float64(s.dur())/float64(s.Ops))
		}
	}
	return out
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent callees); covered time is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeJSONL writes one JSON object per line: the benchmark's own spans,
// then any extra records (the program's trace.SpanRecords in a traced run).
func writeJSONL(path string, spans []span, extra []any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err == nil {
			err = enc.Encode(&spans[i])
		}
	}
	for _, rec := range extra {
		if err == nil {
			err = enc.Encode(rec)
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: write %s: %w", path, err)
	}
	return nil
}
