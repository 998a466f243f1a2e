package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spantree"
	"spantree/internal/gen"
	"spantree/internal/graph"
)

// RunGraphGen is the entry point of cmd/graphgen: generate a workload
// graph, optionally print statistics, and write it to disk.
func RunGraphGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind      = fs.String("kind", "random", "generator kind (-list to enumerate)")
		list      = fs.Bool("list", false, "list generator kinds and exit")
		n         = fs.Int("n", 1<<16, "vertex budget")
		m         = fs.Int("m", 0, "edge count (random graphs; 0 = 1.5n)")
		k         = fs.Int("k", 0, "neighbor count (geometric graphs; 0 = 3)")
		seed      = fs.Uint64("seed", 1, "random seed")
		randlabel = fs.Bool("randlabel", false, "randomly relabel after generation")
		format    = fs.String("format", "binary", "output format: binary or text")
		out       = fs.String("out", "", "output path (required unless -stats only)")
		showStats = fs.Bool("stats", false, "print graph statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, kd := range gen.Kinds() {
			fmt.Fprintln(stdout, kd)
		}
		return nil
	}
	// The format is checked before anything is generated or created, so
	// a bad -format leaves no file behind.
	write := spantree.WriteGraph
	switch *format {
	case "binary":
	case "text":
		write = spantree.WriteGraphText
	default:
		return fmt.Errorf("graphgen: unknown -format %q (want binary or text)", *format)
	}

	g, err := gen.Generate(gen.Spec{Kind: *kind, N: *n, M: *m, K: *k, Seed: *seed, RandomLabel: *randlabel})
	if err != nil {
		return err
	}
	if *showStats {
		printStats(stdout, g)
	}
	if *out == "" {
		if !*showStats {
			return fmt.Errorf("graphgen: -out is required (or pass -stats to only inspect)")
		}
		return nil
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %v to %s (%s)\n", g, *out, *format)
	return nil
}

func printStats(w io.Writer, g *spantree.Graph) {
	fmt.Fprintf(w, "name: %s\n", g.Name)
	fmt.Fprintf(w, "vertices: %d\n", g.NumVertices())
	fmt.Fprintf(w, "edges: %d\n", g.NumEdges())
	fmt.Fprintf(w, "avg degree: %.3f\n", g.AvgDegree())
	fmt.Fprintf(w, "max degree: %d\n", g.MaxDegree())
	_, ncomp := graph.Components(g)
	fmt.Fprintf(w, "components: %d\n", ncomp)
	if g.NumVertices() > 0 {
		fmt.Fprintf(w, "pseudo-diameter (from 0): %d\n", graph.PseudoDiameter(g, 0))
	}
	hist := g.DegreeHistogram()
	for d, c := range hist {
		if c > 0 && d <= 10 {
			fmt.Fprintf(w, "  degree %2d: %d vertices\n", d, c)
		}
	}
}
