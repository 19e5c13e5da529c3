package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanLog keeps spans in memory until the run ends. Each span has a
// name, start and end (seconds since the log began), its parent span
// (-1 for a root) and a trace id that all spans of one disk share. A
// nil log records nothing, so untraced runs pay no tracing cost.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Trace  int     `json:"trace"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil log).
func (l *spanLog) start(name string, trace, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name, Trace: trace, Parent: parent, Start: now, End: now})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// durations returns the duration in seconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
