package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval on the host clock. Spans of one timed op
// (the op itself and the verification around it) share its id; set-up
// spans have id -1. Times are nanoseconds since the process started.
type span struct {
	Name   string            `json:"name"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // index of the parent span, -1 for none
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// spanLog keeps a traced world's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced worlds pay no more than a
// nil check.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// open starts a span now and returns its index.
func (l *spanLog) open(name string, id int, tags map[string]string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: -1,
		Start: int64(time.Since(l.t0)), End: -1, Tags: tags})
	return len(l.spans) - 1
}

// close ends the span open returned.
func (l *spanLog) close(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.t0))
}

// add records a completed span and returns its index.
func (l *spanLog) add(name string, id, parent int, start, end time.Time, tags map[string]string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Tags: tags})
	return len(l.spans) - 1
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
