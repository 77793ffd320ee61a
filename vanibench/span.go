package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one operation share a request id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // the input the span worked on
	Start  int64  `json:"start_ns"`        // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	all  []span
	reqs atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// req allocates a request id for a new operation.
func (t *tracer) req() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int, req int64) int {
	return t.startL(name, "", parent, req)
}

// startL is start with a label naming the input the span works on.
func (t *tracer) startL(name, label string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.all) + 1
	t.all = append(t.all, span{ID: id, Parent: parent, Req: req, Name: name, Label: label, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.all[id-1].End = now
	t.mu.Unlock()
}

// spans returns the closed spans named name; a non-empty label also
// selects by label.
func (t *tracer) spans(name, label string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.all {
		if s.Name == name && (label == "" || s.Label == label) && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration of the spans named name (and labelled
// label, when not empty), in ms.
func (t *tracer) medianMS(name, label string) float64 {
	var ds []float64
	for _, s := range t.spans(name, label) {
		ds = append(ds, ms(s.dur()))
	}
	return median(ds)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover; overlapping children count once.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	p := t.all[id-1]
	var iv [][2]int64
	for _, s := range t.all {
		if s.Parent == id && s.End >= 0 {
			iv = append(iv, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return p.dur() - time.Duration(covered)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
