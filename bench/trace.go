package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call from bench code into a layer. Spans nest: a
// span's parent is the enclosing span on the same lane, and every span of
// one operation (a Find and its checks, a request and its check) shares
// the operation's id.
type span struct {
	name       string
	start, end time.Duration // since the trace origin
	parent     int           // index into the lane, -1 for a root
	op         int64
}

// lane is the span buffer of one goroutine. It is preallocated so that
// recording never allocates inside the traced pass; spans beyond its
// capacity are counted and dropped. A nil lane records nothing, which is
// how the untraced window runs the same code.
type lane struct {
	id      int
	origin  time.Time
	spans   []span
	dropped int
}

// tracer owns the lanes of one traced pass.
type tracer struct {
	origin time.Time
	lanes  []*lane
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// lane returns a new lane holding up to capacity spans. A nil tracer
// returns a nil lane.
func (t *tracer) lane(capacity int) *lane {
	if t == nil {
		return nil
	}
	l := &lane{id: len(t.lanes), origin: t.origin, spans: make([]span, 0, capacity)}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span and returns its index, or -1 when l is nil or full.
func (l *lane) begin(name string, parent int, op int64) int {
	if l == nil {
		return -1
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.origin), parent: parent, op: op})
	return len(l.spans) - 1
}

// end closes span i; a no-op for i < 0.
func (l *lane) end(i int) {
	if i >= 0 {
		l.spans[i].end = time.Since(l.origin)
	}
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children, which nest inside it.
func selfTimes(spans []span) []spanStat {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	byName := map[string]*spanStat{}
	var out []*spanStat
	for i, s := range spans {
		st := byName[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			byName[s.name] = st
			out = append(out, st)
		}
		st.count++
		st.total += s.end - s.start
		st.self += self[i]
	}
	res := make([]spanStat, len(out))
	for i, st := range out {
		res[i] = *st
	}
	sort.Slice(res, func(i, j int) bool { return res[i].self > res[j].self })
	return res
}

// writeSelfTable prints the per-span self-time table, largest self time
// first.
func (t *tracer) writeSelfTable(w io.Writer) {
	var all []span
	dropped := 0
	for _, l := range t.lanes {
		// Parent indices are lane-local; rebase them into the merged slice.
		base := len(all)
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
		dropped += l.dropped
	}
	stats := selfTimes(all)
	var selfSum time.Duration
	for _, st := range stats {
		selfSum += st.self
	}
	fmt.Fprintf(w, "# trace: %d spans (%d dropped)\n", len(all), dropped)
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_%")
	for _, st := range stats {
		fmt.Fprintf(w, "# %-22s %8d %12.3f %12.3f %7.2f\n", st.name, st.count,
			float64(st.total)/1e6, float64(st.self)/1e6, 100*ratio(float64(st.self), float64(selfSum)))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON, one thread
// per lane, times in microseconds.
func (t *tracer) writeChrome(path string) error {
	var ev []chromeEvent
	for _, l := range t.lanes {
		for _, s := range l.spans {
			ev = append(ev, chromeEvent{
				Name: s.name, Ph: "X", PID: 1, TID: l.id,
				TS:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: map[string]any{"op": s.op, "parent": s.parent},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
