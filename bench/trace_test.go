package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// op [0,10) holds find [1,6) and check [6,9); check holds verify [7,8).
	spans := []span{
		{name: "op", start: 0, end: 10 * ms, parent: -1},
		{name: "find", start: 1 * ms, end: 6 * ms, parent: 0},
		{name: "check", start: 6 * ms, end: 9 * ms, parent: 0},
		{name: "verify", start: 7 * ms, end: 8 * ms, parent: 2},
		{name: "find", start: 20 * ms, end: 22 * ms, parent: -1},
	}
	want := map[string]spanStat{
		"op":     {name: "op", count: 1, total: 10 * ms, self: 2 * ms},
		"find":   {name: "find", count: 2, total: 7 * ms, self: 7 * ms},
		"check":  {name: "check", count: 1, total: 3 * ms, self: 2 * ms},
		"verify": {name: "verify", count: 1, total: 1 * ms, self: 1 * ms},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st != want[st.name] {
			t.Errorf("%s: got %+v, want %+v", st.name, st, want[st.name])
		}
		if i > 0 && got[i-1].self < st.self {
			t.Errorf("table not sorted by self time at %s", st.name)
		}
	}
}

func TestLaneBoundsAndChromeOutput(t *testing.T) {
	var nilTracer *tracer
	l := nilTracer.lane(4)
	if i := l.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil lane recorded span %d", i)
	}
	l.end(-1)

	tr := newTracer()
	l = tr.lane(2)
	a := l.begin("a", -1, 7)
	b := l.begin("b", a, 7)
	l.end(b)
	l.end(a)
	if c := l.begin("c", -1, 8); c != -1 || l.dropped != 1 {
		t.Fatalf("full lane: begin = %d, dropped = %d; want -1, 1", c, l.dropped)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "b" || doc.TraceEvents[1].Ph != "X" {
		t.Fatalf("chrome events = %+v", doc.TraceEvents)
	}
}
