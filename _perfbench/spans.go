package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's origin on the monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Feed is the feed index of the session the span belongs to, or -1
	// when no session could be linked (set-up calls, fetches of benign
	// redirect targets).
	Feed int `json:"feed"`
	// Iter numbers the traced crawl the span came from (0 = set-up).
	Iter int  `json:"iter"`
	Err  bool `json:"err,omitempty"`
	// Fetches is how many fetched documents a replay span stands for:
	// identical bodies are replayed once (0 means 1).
	Fetches int `json:"fetches,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// weight is how many samples the span counts as.
func (s span) weight() int { return max(s.Fetches, 1) }

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends, so the trace costs no I/O while it is being taken.
type recorder struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as a span with a fresh ID.
func (r *recorder) timed(name string, parent int64, feed, iter int, fn func()) {
	r.timedID(r.newID(), name, parent, feed, iter, fn)
}

// timedID records fn as span id, which fn may already name as the parent
// of its own spans.
func (r *recorder) timedID(id int64, name string, parent int64, feed, iter int, fn func()) {
	start := r.now()
	fn()
	r.add(span{ID: id, Parent: parent, Name: name, Start: start, End: r.now(), Feed: feed, Iter: iter})
}

// named returns the recorded spans called name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the header line and then one JSON span per line at path.
func (r *recorder) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer f.Close() // error paths only; the success path checks Close
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
