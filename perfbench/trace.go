package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps each call into a module's public API.
// Spans of one op or request share a Group; Parent is the enclosing
// span (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	// Key ties a span to the run-cache key it served, for spans that
	// run on server goroutines and cannot see their request's span.
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type Tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty recorder.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// Root opens a span that starts a new group (one op or request).
func (t *Tracer) Root(name string) Span {
	if t == nil {
		return Span{}
	}
	id := t.next.Add(1)
	return Span{ID: id, Group: id, Name: name, Start: t.now()}
}

// Child opens a span inside parent's group.
func (t *Tracer) Child(parent Span, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{ID: t.next.Add(1), Parent: parent.ID, Group: parent.Group, Name: name, Start: t.now()}
}

// End closes s and keeps it.
func (t *Tracer) End(s Span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans ordered by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// AdoptByKey gives every parentless span named child the request span
// (named parent) with the same Key whose interval encloses it. Store
// calls run on server goroutines; the key and the interval are what
// link them to the client request that caused them.
func AdoptByKey(spans []Span, parent, child string) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Name == parent && s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		for _, j := range byKey[c.Key] {
			p := spans[j]
			if p.Start <= c.Start && c.End <= p.End {
				c.Parent, c.Group = p.ID, p.Group
				break
			}
		}
	}
}

// SelfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.lo, hi), min(c.hi, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}

// LayerTime aggregates the spans of one name.
type LayerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// MeanSelf is the mean self time per span.
func (l LayerTime) MeanSelf() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Self / time.Duration(l.Count)
}

// Layers aggregates spans by name, ordered by descending self time.
func Layers(spans []Span) []LayerTime {
	self := SelfTimes(spans)
	by := map[string]*LayerTime{}
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &LayerTime{Name: s.Name}
			by[s.Name] = l
		}
		l.Count++
		l.Total += s.Dur()
		l.Self += self[s.ID]
	}
	out := make([]LayerTime, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteSelfTable prints the self-time table: one row per span name.
func WriteSelfTable(w io.Writer, layers []LayerTime) {
	var all time.Duration
	for _, l := range layers {
		all += l.Self
	}
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_ms/span", "self%")
	for _, l := range layers {
		share := 0.0
		if all > 0 {
			share = 100 * float64(l.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.4f %6.1f%%\n", l.Name, l.Count,
			ms(l.Total), ms(l.Self), ms(l.MeanSelf()), share)
	}
}

// DumpSpans writes {"host": host, "spans": spans} as JSON to dir/name
// and returns the path.
func DumpSpans(dir, name string, host any, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Host  any    `json:"host"`
		Spans []Span `json:"spans"`
	}{host, spans})
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
