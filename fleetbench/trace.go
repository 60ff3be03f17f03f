package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one round share Round; spans of one
// forget request share Req. Lane names the goroutine that ran the
// span: children on one lane run one after another, children on
// different lanes run in parallel.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // -1 for a root
	Lane   int    `json:"lane"`
	Round  int    `json:"round"` // -1 when not part of a round
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by validate
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its ID. A nil tracer returns -1 and
// records nothing, so untraced code paths call it unconditionally.
func (t *tracer) begin(name string, parent, lane, round int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Lane: lane,
		Round: round, Req: req, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, parent, lane, round int, req string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Lane: lane, Round: round,
		Req: req, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// durations returns the closed durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// validate checks every span tree and fills in self times. Each span
// must be closed and lie inside its parent, and on every lane the
// children of a span may not add up to more than the span itself.
// Self time is a span's duration minus the union of its children's
// intervals.
func (t *tracer) validate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		kids := children[i]
		perLane := make(map[int]int64)
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			c := &t.spans[k]
			if c.Start < p.Start || c.End > p.End {
				return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
					c.ID, c.Name, c.Start, c.End, p.ID, p.Name, p.Start, p.End)
			}
			perLane[c.Lane] += c.End - c.Start
			ivs = append(ivs, iv{c.Start, c.End})
		}
		for lane, sum := range perLane {
			if sum > p.End-p.Start {
				return fmt.Errorf("span %d (%s): lane %d children sum %v > parent %v",
					p.ID, p.Name, lane, time.Duration(sum), p.dur())
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		p.Self = p.End - p.Start - covered
	}
	return nil
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints per-name span counts, total and self time.
func (t *tracer) summarize(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for i := range t.spans {
		s := &t.spans[i]
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-24s %8d %12v %12v\n", n, a.n,
			time.Duration(a.total).Round(time.Microsecond), time.Duration(a.self).Round(time.Microsecond))
	}
}
