package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"spantree/internal/harness"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// RunBenchFig is the entry point of cmd/benchfig: regenerate the
// paper's figures and ablations.
func RunBenchFig(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "experiments to run: all, 3, 4, ablations, an exact id, or a comma-separated list of those")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		scale    = fs.Int("scale", 1<<16, "vertex budget per input graph (paper: 1048576)")
		procs    = fs.String("procs", "1,2,4,8", "comma-separated processor counts for the Fig. 4 sweeps")
		seed     = fs.Uint64("seed", 20040426, "random seed")
		mode     = fs.String("mode", "modeled", "measurement mode: modeled or wallclock")
		machine  = fs.String("machine", "e4500", "cost-model machine profile: e4500 or modern")
		repeats  = fs.Int("repeats", 3, "wall-clock repetitions (min reported)")
		csv      = fs.Bool("csv", false, "emit tables as CSV")
		strict   = fs.Bool("strict", false, "return an error if any shape check fails")
		chunk    = fs.Int("chunk", 0, "drain chunk size for every parallel algorithm: > 0 forces a fixed chunk; 0 keeps the adaptive controller")
		chunkPol = fs.String("chunkpolicy", "", "drain chunk policy for every parallel algorithm: adaptive or fixed (default adaptive, or fixed when -chunk > 0)")
		algName  = fs.String("alg", "workstealing", "parallel algorithm for the Fig. 3/4 experiments: workstealing or spanuf (spanuf substitutes the CAS-hook sweep and skips the traversal's shape checks — used to pin the spanuf wall-clock baseline)")
		metrics  = fs.String("metrics", "", "write per-worker metrics JSON (one report per instrumented measurement and repetition) to this path")
		trace    = fs.String("trace", "", "write event-trace JSON for the instrumented measurements to this path")
		traceCap = fs.Int("tracecap", 1<<14, "per-run event ring-buffer capacity for -trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range harness.IDs() {
			e, _ := harness.ByID(id)
			fmt.Fprintf(stdout, "%-22s %s\n", id, e.Title)
		}
		return nil
	}

	policy, err := resolveChunkPolicy(*chunkPol, *chunk)
	if err != nil {
		return err
	}
	cfg := harness.Config{
		Scale:       *scale,
		Seed:        *seed,
		Repeats:     *repeats,
		Verify:      true,
		ChunkPolicy: policy,
		ChunkSize:   *chunk,
	}
	switch *algName {
	case "workstealing":
	case "spanuf":
		cfg.SpanUF = true
	default:
		return fmt.Errorf("benchfig: bad -alg %q (want workstealing or spanuf)", *algName)
	}
	if *metrics != "" || *trace != "" {
		cfg.Collector = &obs.Collector{}
		if *trace != "" {
			cfg.Collector.TraceCap = *traceCap
		}
	}
	for _, s := range strings.Split(*procs, ",") {
		var p int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &p); err != nil || p < 1 {
			return fmt.Errorf("benchfig: bad -procs entry %q", s)
		}
		cfg.Procs = append(cfg.Procs, p)
	}
	switch *mode {
	case "modeled":
		cfg.Mode = harness.Modeled
	case "wallclock":
		cfg.Mode = harness.WallClock
	default:
		return fmt.Errorf("benchfig: bad -mode %q (want modeled or wallclock)", *mode)
	}
	switch *machine {
	case "e4500":
		cfg.Machine = smpmodel.E4500()
	case "modern":
		cfg.Machine = smpmodel.Modern()
	default:
		return fmt.Errorf("benchfig: bad -machine %q (want e4500 or modern)", *machine)
	}

	ids, err := selectExperiments(*fig)
	if err != nil {
		return err
	}

	allPassed := true
	for _, id := range ids {
		e, _ := harness.ByID(id)
		rep, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("benchfig: %s: %w", id, err)
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", rep.ID, rep.Table.CSV())
		} else {
			if _, err := rep.WriteTo(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		if !rep.Passed() {
			allPassed = false
		}
	}
	if *metrics != "" {
		if err := cfg.Collector.WriteMetrics(*metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics: wrote %s (%d runs)\n", *metrics, cfg.Collector.Len())
	}
	if *trace != "" {
		if err := cfg.Collector.WriteTrace(*trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: wrote %s\n", *trace)
	}
	if *strict && !allPassed {
		return fmt.Errorf("benchfig: one or more shape checks failed")
	}
	return nil
}

// selectExperiments resolves the -fig argument: a single selector or a
// comma-separated list of selectors, deduplicated in first-seen order
// (so the CI pipelines can ask for e.g. "fig3,fig4-torus,abl-chunk" in
// one process).
func selectExperiments(fig string) ([]string, error) {
	parts := strings.Split(fig, ",")
	if len(parts) > 1 {
		seen := make(map[string]bool)
		var ids []string
		for _, part := range parts {
			sub, err := selectExperiments(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			for _, id := range sub {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		return ids, nil
	}
	switch fig {
	case "all":
		return harness.IDs(), nil
	case "3", "fig3":
		return []string{"fig3"}, nil
	case "4", "fig4":
		var ids []string
		for _, id := range harness.IDs() {
			if strings.HasPrefix(id, "fig4") {
				ids = append(ids, id)
			}
		}
		return ids, nil
	case "ablations", "abl":
		var ids []string
		for _, id := range harness.IDs() {
			if strings.HasPrefix(id, "abl") {
				ids = append(ids, id)
			}
		}
		return ids, nil
	default:
		if _, ok := harness.ByID(fig); !ok {
			return nil, fmt.Errorf("benchfig: unknown experiment %q; use -list", fig)
		}
		return []string{fig}, nil
	}
}
