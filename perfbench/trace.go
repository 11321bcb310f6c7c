package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (0 for an op's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int
	op     int
	opSpan int
	opT0   time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id before the span ends, so a child recorded
// elsewhere (a worker's handler) can name it as parent.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := t.newID()
	t.record(id, parent, name, start, end)
	return id
}

// root is the current op's root span id.
func (t *tracer) root() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opSpan
}

func (t *tracer) beginOp(i int) {
	id := t.newID()
	t.mu.Lock()
	t.op, t.opSpan, t.opT0 = i, id, time.Now()
	t.mu.Unlock()
}

func (t *tracer) endOp() {
	t.mu.Lock()
	id, start := t.opSpan, t.opT0
	t.mu.Unlock()
	t.record(id, 0, "op", start, time.Now())
}

type interval struct{ lo, hi float64 }

// union merges intervals and returns them sorted and disjoint.
func union(iv []interval) []interval {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// coverage returns the share of op wall time that spans named in names
// cover, over all traced ops; the uncovered remainder in seconds, keyed by
// where it sits between those spans; and, per name, the number of ops in
// which that span is missing or empty. The spans run from one boundary to
// the next, so they tile an op by construction and the share only checks
// its edges: a boundary the benchmark failed to see shows as a missing
// span, not as a gap.
func (t *tracer) coverage(names []string) (float64, map[string]float64, map[string]int) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	gaps := map[string]float64{}
	missing := map[string]int{}
	var wall, covered float64
	for _, spans := range byOp {
		var op span
		var iv []interval
		seen := map[string]bool{}
		for _, s := range spans {
			if s.Name == "op" {
				op = s
			} else if want[s.Name] {
				iv = append(iv, interval{s.Start, s.End})
				if s.End > s.Start {
					seen[s.Name] = true
				}
			}
		}
		for _, n := range names {
			if !seen[n] {
				missing[n]++
			}
		}
		wall += op.End - op.Start
		prev, prevName := op.Start, "op start"
		for _, x := range union(iv) {
			covered += x.hi - x.lo
			if x.lo > prev {
				gaps["between "+prevName+" and "+firstNamed(spans, want, x.lo)] += x.lo - prev
			}
			prev, prevName = x.hi, lastNamed(spans, want, x.hi)
		}
		if op.End > prev {
			gaps["between "+prevName+" and op end"] += op.End - prev
		}
	}
	if wall == 0 {
		return 0, gaps, missing
	}
	return covered / wall, gaps, missing
}

func firstNamed(spans []span, want map[string]bool, start float64) string {
	for _, s := range spans {
		if want[s.Name] && s.Start == start {
			return s.Name
		}
	}
	return "?"
}

func lastNamed(spans []span, want map[string]bool, end float64) string {
	for _, s := range spans {
		if want[s.Name] && s.End == end {
			return s.Name
		}
	}
	return "?"
}

// selfTimes sums, per span name, total and self time: a span's self time
// is its duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string][2]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start
		for _, c := range union(children[s.ID]) {
			self -= min(c.hi, s.End) - max(c.lo, s.Start)
		}
		v := out[s.Name]
		v[0] += s.End - s.Start
		v[1] += self
		out[s.Name] = v
	}
	return out
}

// printSelf writes the per-op total and self time of every span name to
// standard error.
func (t *tracer) printSelf(ops int) {
	st := t.selfTimes()
	var names []string
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %-34s %12s %12s (per op, %d traced ops)\n", "span", "total_s", "self_s", ops)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-34s %12.4f %12.4f\n", n, st[n][0]/float64(ops), st[n][1]/float64(ops))
	}
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
