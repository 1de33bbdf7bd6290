package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one op share Op; Parent names
// the enclosing span as "<op>/<name>" (empty for a root span).
type span struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
// A nil *spanLog records nothing, which is how untraced runs skip it.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span; times are kept relative to the log's start.
func (l *spanLog) add(op, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent,
		StartUS: start.Sub(l.t0).Microseconds(), EndUS: end.Sub(l.t0).Microseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// writeJSONL writes the spans one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
