// Package harness defines and runs the reproduction experiments: one
// entry per figure in the paper's evaluation (Fig. 3 scalability and the
// ten plots of Fig. 4), plus ablation studies of the design choices the
// paper calls out. cmd/benchfig is the command-line front end.
//
// Each experiment measures algorithms in one of two modes:
//
//   - Modeled (default): algorithms run with Helman-JáJá cost-model
//     instrumentation — the work-stealing algorithm under the
//     deterministic lockstep driver — and times are computed from the
//     per-processor counters under a machine profile. This is the mode
//     that reproduces the paper's figures on any host, including the
//     single-core container this reproduction was built in (see
//     DESIGN.md, "Paper → implementation substitutions").
//
//   - Wall-clock: algorithms run concurrently and are timed; meaningful
//     parallel speedups require a multi-core host.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/stats"
)

// Mode selects how experiments measure time.
type Mode int

const (
	// Modeled computes times from cost-model counters (deterministic).
	Modeled Mode = iota
	// WallClock times real concurrent runs.
	WallClock
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == WallClock {
		return "wallclock"
	}
	return "modeled"
}

// Config parameterizes an experiment run.
type Config struct {
	// Scale is the vertex budget n for each input graph. The paper used
	// n = 1M; the default here is 1<<16 so the full suite runs in
	// seconds. Pass -scale 1048576 to benchfig for paper-scale inputs.
	Scale int
	// Procs is the processor counts swept by the Fig. 4 experiments.
	Procs []int
	// Fig3Procs is the fixed processor count of the Fig. 3 experiment
	// (the paper uses 8).
	Fig3Procs int
	// Seed drives graph generation and the randomized algorithm.
	Seed uint64
	// Mode selects modeled or wall-clock measurement.
	Mode Mode
	// Machine is the cost-model profile for Modeled mode.
	Machine smpmodel.Machine
	// Repeats is the number of wall-clock repetitions (min is reported).
	Repeats int
	// Verify re-checks every computed forest with the independent
	// verifier (on by default in the tools; costs one O(n+m) pass).
	Verify bool
	// Collector, when non-nil, receives one observability Report per
	// instrumented measurement (the work-stealing and SV-family runs),
	// labeled "algo/graph/p=N" — the metrics artifact cmd/benchfig
	// writes for -metrics / -trace.
	Collector *obs.Collector
	// SpanUF substitutes the edge-centric CAS-hook sweep for the
	// work-stealing traversal in the Fig. 3 and Fig. 4 experiments
	// (benchfig -alg spanuf). Intended for pinning a spanuf wall-clock
	// baseline with -metrics: the modeled shape checks encode the
	// traversal's expected shape, so experiments skip them under the
	// substitution, and the degree-2 / ablation rows that only exist for
	// the traversal are omitted.
	SpanUF bool
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1 << 16
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4, 8}
	}
	if c.Fig3Procs == 0 {
		c.Fig3Procs = 8
	}
	if c.Machine == (smpmodel.Machine{}) {
		c.Machine = smpmodel.E4500()
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// Check is a shape assertion derived from the paper's claims, evaluated
// against the measured data.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the result of one experiment.
type Report struct {
	ID       string
	Title    string
	Table    *stats.Table
	Findings []string
	Checks   []Check
}

// Passed reports whether all checks passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// WriteTo renders the report as text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  note: %s\n", f)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "  check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Experiment is one reproducible figure or ablation.
type Experiment struct {
	ID          string
	Title       string
	Description string
	run         func(cfg Config) (*Report, error)
}

// Run executes the experiment.
func (e Experiment) Run(cfg Config) (*Report, error) {
	return e.run(cfg.withDefaults())
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID with figures
// before ablations.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}
