package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// recorder keeps every span in memory; the traced run writes them out at the
// end. It is safe for concurrent use (the strategies replicas run on several
// workers).
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e6 }

// start opens a span under parent (0 for a root span) and returns its id.
func (r *recorder) start(name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: t})
	return len(r.spans)
}

// end closes span id and returns it.
func (r *recorder) end(id int) span {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
	return r.spans[id-1]
}

// add records a span timed by the caller (start and end from now()).
func (r *recorder) add(name string, parent int, start, end float64) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end}
	r.spans = append(r.spans, s)
	return s
}

// time runs fn inside a span and returns the span.
func (r *recorder) time(name string, parent int, fn func()) span {
	id := r.start(name, parent)
	fn()
	return r.end(id)
}

// writeJSON writes every span as a JSON array.
func (r *recorder) writeJSON(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
