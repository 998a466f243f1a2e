// Command bench is the repository benchmark: three workloads that drive
// the spanning-tree library in process and the spantreed daemon over
// HTTP, check every output against an oracle, and print end-to-end and
// per-layer metrics. See README.md for the workloads, the metrics and how
// to read the trace.
//
// Usage (from the repository root; run.sh builds the daemon first):
//
//	bash bench/run.sh --workload lib-random --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --seed 1        # every workload, both passes
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spantree/internal/xrand"
)

// metricDef names a metric and its unit. endToEnd and perLayer are the
// metric lists of BENCHMARK.json; a test keeps them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"speedup_vs_seq", "x"},
	{"speedup_vs_seq_mean", "x"},
	{"model_speedup_p8", "x"},
}

// perLayer metrics a workload does not exercise read 0.
var perLayer = []metricDef{
	{"gen.generate_s", "s"},
	{"graph.compact_ms", "ms"},
	{"session.new_s", "s"},
	{"session.find_ms_p50", "ms"},
	{"session.find_ms_p90", "ms"},
	{"session.allocs_per_run", "count"},
	{"session.gc_cycles", "count"},
	{"core.steal_attempts_per_run", "count"},
	{"core.steal_hit_rate", "fraction"},
	{"core.stolen_vertices_per_run", "count"},
	{"core.failed_claims_per_run", "count"},
	{"core.chunk_grow_per_run", "count"},
	{"core.chunk_shrink_per_run", "count"},
	{"core.cursor_roots_per_run", "count"},
	{"core.load_imbalance", "x"},
	{"core.stub_size", "count"},
	{"core.degraded_runs", "count"},
	{"smpmodel.t_m", "count"},
	{"smpmodel.t_c", "count"},
	{"smpmodel.barriers", "count"},
	{"smpmodel.lockstep_rounds", "count"},
	{"smpmodel.seq_t_m", "count"},
	{"smpmodel.seq_t_c", "count"},
	{"spanseq.bfs_ms_p50", "ms"},
	{"serve.request_ms_p50", "ms"},
	{"serve.request_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.overhead_ms_p90", "ms"},
	{"serve.steals_per_req", "count"},
	{"serve.rejected_429", "count"},
	{"serve.stalled_503", "count"},
	{"serve.deadline_504", "count"},
	{"serve.admit_limit_min", "count"},
	{"serve.degrade_steps", "count"},
	{"serve.boot_s", "s"},
	{"serve.register_hot_s", "s"},
	{"bench.trace_overhead_frac", "fraction"},
}

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// procs is the worker count of every session and of the daemon: the
// benchmark host has two CPUs. The load is one operation at a time, so
// these workers are the only busy threads.
const procs = 2

// sizes are the vertex counts of the workloads' graphs. Tests shrink
// them.
type sizes struct {
	lib        int // lib-torus and lib-random
	serveSmall int // serve-small's torus
}

var fullSizes = sizes{lib: 1 << 20, serveSmall: 1 << 14}

// config is one invocation of one workload.
type config struct {
	seed   uint64
	window time.Duration // the whole measured time of the run
	trace  bool          // run the per-layer pass instead of the end-to-end one
	sizes  sizes
	boot   bootFunc // starts a fresh serving backend
}

// rng returns the stream for one purpose of the run's seed: the seed is
// the only workload argument, and every graph and request seed derives
// from it.
func (c config) rng(purpose uint64) *xrand.Rand { return xrand.New(c.seed).Split(purpose) }

// Seed purposes.
const (
	seedGraph = iota + 1
	seedRuns
	seedModel
)

// report collects one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int // sample counts behind the timings
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// op records one attempted operation and whether it failed.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, rep *report, tr *tracer) error
}

var workloads = []workload{
	{"lib-torus", func(ctx context.Context, c config, r *report, tr *tracer) error {
		return runLib(ctx, c, "torus2d", r, tr)
	}},
	{"lib-random", func(ctx context.Context, c config, r *report, tr *tracer) error {
		return runLib(ctx, c, "random", r, tr)
	}},
	{"serve-small", runServeSmall},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs one workload and returns its report; the tracer is nil
// unless cfg.trace.
func runOne(ctx context.Context, w workload, cfg config) (*report, *tracer, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := w.run(ctx, cfg, rep, tr); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, d := range endToEnd {
		if _, ok := rep.values[d.name]; !ok {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s not measured", w.name, d.name)
		}
	}
	return rep, tr, nil
}

// finite maps a latency that a failure made infinite onto the largest
// float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport writes one "workload metric value unit" line per metric of
// defs and returns the result object of those metrics.
func printReport(w io.Writer, name string, rep *report, defs []metricDef) jsonResult {
	res := jsonResult{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v := finite(rep.values[d.name])
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%s failed_frac %.6g fraction\n", name, ratio(float64(rep.failed), float64(rep.attempted)))
	return res
}

// artifact is the JSON file a run leaves behind: every metric the run
// measured plus the host and build it ran on.
type artifact struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	WindowS    float64            `json:"window_s"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
}

func writeArtifact(path, root string, name string, cfg config, rep *report) error {
	m := map[string]float64{}
	for k, v := range rep.values {
		m[k] = finite(v)
	}
	a := artifact{
		Workload: name, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(root),
		Attempted: rep.attempted, Failed: rep.failed, Metrics: m, Samples: rep.samples,
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding artifact: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing artifact: %w", err)
	}
	return nil
}

// gitCommit reads the checked-out commit from root/.git without running
// git; "unknown" outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed a check; its result line
// is still printed.
var errIncorrect = fmt.Errorf("an output failed its correctness check")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (empty: every workload, untraced then traced)")
		seed    = fs.Uint64("seed", 1, "seed every graph and request derives from")
		seconds = fs.Int("seconds", 30, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		daemon  = fs.String("daemon", "", "spantreed binary the serving workloads start (required for them)")
		workdir = fs.String("workdir", ".bench_build", "directory for traces and artifacts")
		root    = fs.String("root", ".", "repository root, for the commit stamp")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: need >= 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type pass struct {
		w     workload
		trace bool
	}
	var passes []pass
	if *name == "" {
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				passes = append(passes, pass{w, tr})
			}
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		passes = []pass{{w, *trace == 1}}
	}

	incorrect := false
	var last jsonResult
	for _, p := range passes {
		cfg := config{
			seed: *seed, window: time.Duration(*seconds) * time.Second, trace: p.trace,
			sizes: fullSizes, boot: daemonBoot(*daemon),
		}
		rep, tr, err := runOne(ctx, p.w, cfg)
		if err != nil {
			return err
		}
		if tr != nil {
			tr.writeSelfTable(stdout)
			tracePath := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", p.w.name, *seed))
			if err := tr.writeChrome(tracePath); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# trace written to %s\n", tracePath)
		}
		defs := endToEnd
		if p.trace {
			defs = perLayer
		}
		last = printReport(stdout, p.w.name, rep, defs)
		kind := "e2e"
		if p.trace {
			kind = "layers"
		}
		artPath := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-%s.json", p.w.name, *seed, kind))
		if err := writeArtifact(artPath, *root, p.w.name, cfg, rep); err != nil {
			return err
		}
		incorrect = incorrect || !last.Correct
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if incorrect {
		return errIncorrect
	}
	return nil
}
