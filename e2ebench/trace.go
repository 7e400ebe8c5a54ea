package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one op share Op; Parent is the index of the
// enclosing span (-1 for a root). Times are nanoseconds since the tracer
// started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps every span in memory; write dumps them once the run ends.
// A nil *tracer records nothing, so untraced passes share the code of
// traced ones without paying for spans.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is the aggregate of all spans with one name under one root.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // Total minus the time its children cover
}

// summarize aggregates the closed spans below root (or every span when
// root is -1) by name. A span's self time is its duration minus the union
// of its children's intervals, so overlapping children on parallel workers
// are not double-counted.
func (t *tracer) summarize(root int32) map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	under := make([]bool, len(t.spans))
	children := make([][]int32, len(t.spans))
	for i := range t.spans {
		p := t.spans[i].Parent
		if p >= 0 {
			children[p] = append(children[p], int32(i))
		}
		// Parents are always recorded before their children.
		under[i] = root < 0 || int32(i) == root || (p >= 0 && under[p])
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		if !under[i] || s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		dur := float64(s.End-s.Start) / 1e9
		lt.Count++
		lt.Total += dur
		lt.Self += dur - float64(t.covered(s, children[i]))/1e9
	}
	return out
}

// covered is how many nanoseconds of s the given child spans cover.
func (t *tracer) covered(s span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		if c.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if v.b <= v.a {
			continue
		}
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// sortedTimes lists a summary by name for the run record.
func sortedTimes(m map[string]*layerTime) []layerTime {
	out := make([]layerTime, 0, len(m))
	for _, lt := range m {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
