package main

import (
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around the call. Times are host nanoseconds since the traced pass
// began; Parent is the enclosing span's ID (0 for the pass itself).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanLog keeps a traced pass's spans in memory until the pass ends.
// Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// record runs fn inside a new span under parent and returns the span.
func (l *spanLog) record(name string, parent int, fn func(id int) error) (span, error) {
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name})
	l.mu.Unlock()
	start := time.Since(l.t0).Nanoseconds()
	err := fn(id)
	end := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].StartNS, l.spans[id-1].EndNS = start, end
	sp := l.spans[id-1]
	l.mu.Unlock()
	return sp, err
}
