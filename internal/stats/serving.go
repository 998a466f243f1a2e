package stats

// The serving benchmark schema (spantree/serving/v1): what cmd/loadgen
// writes after driving a spantreed instance, and what cmd/benchcmp
// gates against results/BENCH_serving_baseline.json. Each scenario is
// one load shape (closed-loop at a concurrency, or open-loop at a
// rate) summarized by its latency percentiles; the regression gate
// compares p99 — the serving SLO metric — with the same soft/hard
// tolerance and noise-budget machinery as the wall-clock gate.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spantree/internal/obs"
)

// ServingSchema identifies a serving benchmark artifact.
const ServingSchema = "spantree/serving/v1"

// ServingScenario is one measured load shape.
type ServingScenario struct {
	// Name identifies the scenario for baseline matching, e.g.
	// "closed-c4" (closed loop, concurrency 4) or "open-r200".
	Name string `json:"name"`
	// Mode is "closed" (fixed concurrency, next request on completion)
	// or "open" (fixed arrival rate).
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	Graph       string  `json:"graph"`

	// Outcome counts. Requests is the total issued; OK completed with
	// 2xx; Rejected were turned away by admission control (429);
	// Deadlines hit the server deadline (504); Errors is everything
	// else (transport failures, 5xx).
	Requests  int `json:"requests"`
	OK        int `json:"ok"`
	Rejected  int `json:"rejected"`
	Deadlines int `json:"deadlines"`
	Errors    int `json:"errors"`
	// Stalled counts runs the server's stuck-run watchdog aborted (503
	// stalled) that client-side retries did not recover; Retries counts
	// retry attempts the client spent across the scenario. Both are
	// additive schema fields (absent in older artifacts).
	Stalled int `json:"stalled,omitempty"`
	Retries int `json:"retries,omitempty"`

	// DurationNS is the scenario's wall time; ThroughputRPS is
	// OK/duration.
	DurationNS    int64   `json:"duration_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Latency percentiles over successful requests, in nanoseconds.
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// ServingArtifact is the serving benchmark file.
type ServingArtifact struct {
	Schema    string            `json:"schema"`
	Host      obs.HostShape     `json:"host"`
	Meta      map[string]string `json:"meta,omitempty"`
	Scenarios []ServingScenario `json:"scenarios"`
}

// WriteFile writes the artifact as indented JSON, creating parent
// directories and stamping the schema and host shape.
func (a *ServingArtifact) WriteFile(path string) error {
	a.Schema = ServingSchema
	if a.Host.NumCPU == 0 {
		a.Host = obs.CurrentHost()
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("stats: encoding serving artifact: %w", err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("stats: creating %s: %w", dir, err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("stats: writing serving artifact: %w", err)
	}
	return nil
}

// ReadServingArtifact reads a serving artifact (schema checked).
func ReadServingArtifact(path string) (*ServingArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a ServingArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("stats: decoding %s: %w", path, err)
	}
	if a.Schema != ServingSchema {
		return nil, fmt.Errorf("stats: %s has schema %q, want %q", path, a.Schema, ServingSchema)
	}
	return &a, nil
}

// LatencySummary computes the percentile fields from raw per-request
// latencies (nanoseconds; the slice is sorted in place). Percentiles
// use the nearest-rank method on successful requests only.
func (s *ServingScenario) LatencySummary(latenciesNS []int64) {
	if len(latenciesNS) == 0 {
		return
	}
	sort.Slice(latenciesNS, func(i, j int) bool { return latenciesNS[i] < latenciesNS[j] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(latenciesNS))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(latenciesNS) {
			i = len(latenciesNS) - 1
		}
		return latenciesNS[i]
	}
	s.P50NS = rank(0.50)
	s.P99NS = rank(0.99)
	s.P999NS = rank(0.999)
	s.MaxNS = latenciesNS[len(latenciesNS)-1]
}

// CompareServing gates a current serving artifact against a baseline,
// scenario-for-scenario on p99 latency, reusing the wall-clock gate's
// tolerance, noise-budget, and hard-bound machinery (p99 is "the wall
// metric" of a serving benchmark). A scenario whose error count grew
// from zero fails outright — latency percentiles over a different
// success population are not comparable.
func CompareServing(baseline, current *ServingArtifact, opt BenchCompareOptions) *BenchCompareResult {
	o := opt.withDefaults()
	cur := make(map[string]ServingScenario, len(current.Scenarios))
	for _, s := range current.Scenarios {
		cur[s.Name] = s
	}
	res := &BenchCompareResult{WallNoiseBudget: o.WallNoiseBudget}
	base := append([]ServingScenario(nil), baseline.Scenarios...)
	sort.Slice(base, func(i, j int) bool { return base[i].Name < base[j].Name })
	for _, b := range base {
		c, ok := cur[b.Name]
		if !ok {
			res.Unmatched = append(res.Unmatched, b.Name)
			continue
		}
		cmp := compareEntry(b.Name, benchEntry{wallNS: b.P99NS}, benchEntry{wallNS: c.P99NS}, false, o)
		if b.Errors == 0 && c.Errors > 0 {
			cmp.Failures = append(cmp.Failures, fmt.Sprintf("%d requests errored (baseline had none)", c.Errors))
			cmp.WallSoftOnly = false
		}
		res.Comparisons = append(res.Comparisons, cmp)
	}
	return res
}

// DegradeRungWarning renders a warning line when either serving run was
// measured against a server holding a degradation rung (meta
// "degrade_rung" stamped by loadgen), or the two runs disagree on the
// rung. Percentiles at different rungs price different execution
// configurations (full p vs half p vs sequential), so the gate
// warns instead of failing — degradation is the resilience ladder doing
// its job under ambient load, not a latency regression in the code.
func DegradeRungWarning(base, cur map[string]string) string {
	norm := func(m map[string]string) string {
		if v := m["degrade_rung"]; v != "" {
			return v
		}
		return "0"
	}
	b, c := norm(base), norm(cur)
	if b == "0" && c == "0" {
		return ""
	}
	if b == c {
		return fmt.Sprintf("warning: both runs measured at degradation rung %s — comparable to each other, but neither reflects the full configuration", b)
	}
	return fmt.Sprintf("warning: degradation rung differs — baseline %s, current %s; p99 across rungs compares different execution configurations", b, c)
}

// HostShapeWarning renders a warning line when two host shapes are both
// known and differ on timing-relevant fields, or "" when they agree.
// Shape drift makes timings incomparable, but it is the host's fault,
// not the code's — the gate warns instead of failing.
func HostShapeWarning(base, cur obs.HostShape) string {
	if !base.Differs(cur) {
		return ""
	}
	return fmt.Sprintf("warning: host shape differs — baseline %s, current %s; timings are not comparable across shapes",
		base, cur)
}
