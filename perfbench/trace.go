package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op; parent is the index of the enclosing span or -1.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	op         int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning -1.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	timed int64 // epoch offset where the traced timed phase began
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// startTimed marks the start of the traced timed phase; spans begun
// earlier belong to set-up and warm-up.
func (t *tracer) startTimed() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timed = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// child opens a span under the operation's current span.
func (c *opCtx) child(name string) int32 { return c.tr.begin(name, c.sp, c.id) }

// layerTime is a span name's total and self time over a set of spans.
type layerTime struct {
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and self times;
// timed selects the spans of the timed phase (true) or of set-up
// (false). Self time is a span's duration minus the part of its
// interval covered by the union of its children.
func (t *tracer) selfTimes(timed bool) map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.end < 0 || (s.start >= t.timed) != timed {
			continue
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		dur := s.end - s.start
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(kids[int32(i)], s.start, s.end))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		b, err := json.Marshal(map[string]any{
			"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
			"parent": s.parent, "op": s.op, "timed": s.start >= t.timed,
		})
		if err != nil {
			t.mu.Unlock()
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
