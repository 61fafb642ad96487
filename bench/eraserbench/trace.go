package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Root is the index of the block or
// request the span belongs to; Parent is the id of the enclosing span, -1
// for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one traced pass. Spans nest strictly
// (begin/end pairs on one goroutine), so a span's children never overlap.
type tracer struct {
	t0    time.Time
	root  int
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: t.root, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// selfNS sums, per span name, each span's duration minus the part its child
// spans cover.
func (t *tracer) selfNS() map[string]int64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered[i]
	}
	return self
}

// write stores the spans as JSON lines in dir/<name>.spans.jsonl.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
