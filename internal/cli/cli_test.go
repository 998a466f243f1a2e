package cli

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spantree"
	"spantree/internal/core"
	"spantree/internal/gen"
)

// run executes one of the tools and returns stdout, for the common case
// where the invocation must succeed.
func run(t *testing.T, fn func([]string, *bytes.Buffer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := fn(args, &out); err != nil {
		t.Fatalf("%v: %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

func spanTree(args []string, out *bytes.Buffer) error {
	return RunSpanTree(args, out, out)
}
func graphGen(args []string, out *bytes.Buffer) error {
	return RunGraphGen(args, out, out)
}
func benchFig(args []string, out *bytes.Buffer) error {
	return RunBenchFig(args, out, out)
}

func TestSpanTreeBasicRun(t *testing.T) {
	out := run(t, spanTree, "-gen", "torus2d", "-n", "1024", "-algo", "workstealing", "-p", "4", "-model")
	for _, want := range []string{"graph:", "tree: 1023 edges, 1 roots", "verified", "workstealing:", "modeled"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestSpanTreeEveryAlgorithm(t *testing.T) {
	for _, algo := range []string{"workstealing", "seqbfs", "seqdfs", "sequf", "sv", "svlocks", "hcs", "as", "levelbfs"} {
		out := run(t, spanTree, "-gen", "random", "-n", "500", "-algo", algo, "-p", "3")
		if !strings.Contains(out, "verified") {
			t.Fatalf("%s: output lacks verification:\n%s", algo, out)
		}
	}
}

func TestSpanTreeGenList(t *testing.T) {
	out := run(t, spanTree, "-genlist")
	for _, want := range []string{"torus2d", "chain", "geohier", "ad3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("genlist lacks %q:\n%s", want, out)
		}
	}
}

func TestSpanTreeRoundTripThroughFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	out := run(t, spanTree, "-gen", "ad3", "-n", "800", "-out", path)
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("write not reported:\n%s", out)
	}
	out = run(t, spanTree, "-in", path, "-algo", "seqbfs")
	if !strings.Contains(out, "verified") {
		t.Fatalf("round trip failed:\n%s", out)
	}
}

// TestSpanTreeFallbackFlag checks the -fallback plumbing end to end and
// the report line of a triggered fallback. Whether the concurrent run
// triggers depends on how many idle workers sleep at once, so the line
// is checked on the stats of the deterministic lockstep driver, which
// always triggers on this chain.
func TestSpanTreeFallbackFlag(t *testing.T) {
	out := run(t, spanTree, "-gen", "chain", "-n", "20000", "-algo", "workstealing", "-p", "6", "-fallback", "3", "-seed", "3")
	if !strings.Contains(out, "verified") {
		t.Fatalf("-fallback run not verified:\n%s", out)
	}
	_, st, err := core.LockstepForest(gen.Chain(20000), core.Options{NumProcs: 6, Seed: 3, FallbackThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	reportWorkStealing(&rep, &st)
	want := fmt.Sprintf("fallback: SV completion ran (%d grafts in %d iterations)", st.SVStats.Grafts, st.SVStats.Iterations)
	if !st.FallbackTriggered || st.SVStats.Grafts == 0 || !strings.Contains(rep.String(), want) {
		t.Fatalf("fallback not reported:\n%s", rep.String())
	}
}

func TestSpanTreeErrors(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"-in", "/nonexistent/file.bin"},
		{"-gen", "unknowngen"},
		{"-badflag"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := RunSpanTree(args, &out, &out); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

func TestGraphGenStatsAndFormats(t *testing.T) {
	out := run(t, graphGen, "-kind", "geohier", "-n", "600", "-stats")
	for _, want := range []string{"vertices: 600", "components: 1", "pseudo-diameter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats lack %q:\n%s", want, out)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	txt := filepath.Join(dir, "g.txt")
	run(t, graphGen, "-kind", "torus2d", "-n", "100", "-out", bin)
	run(t, graphGen, "-kind", "torus2d", "-n", "100", "-format", "text", "-out", txt)
	data, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# 100 ") {
		t.Fatalf("text output header wrong: %q", string(data[:20]))
	}
	if fi, err := os.Stat(bin); err != nil || fi.Size() == 0 {
		t.Fatalf("binary output missing: %v", err)
	}
}

func TestGraphGenList(t *testing.T) {
	out := run(t, graphGen, "-list")
	if !strings.Contains(out, "mesh2d60") || !strings.Contains(out, "caterpillar") {
		t.Fatalf("list incomplete:\n%s", out)
	}
}

func TestGraphGenErrors(t *testing.T) {
	cases := [][]string{
		{"-kind", "nope", "-out", "x.bin"},
		{"-kind", "random"}, // no -out, no -stats
		{"-kind", "random", "-format", "xml", "-out", "x.bin"},
		{"-kind", "random", "-out", "/nonexistent/dir/x.bin"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := RunGraphGen(args, &out, &out); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

func TestBenchFigList(t *testing.T) {
	out := run(t, benchFig, "-list")
	for _, want := range []string{"fig3", "fig4-torus-random", "abl-fallback", "abl-barriers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list lacks %q:\n%s", want, out)
		}
	}
}

func TestBenchFigSingleExperiment(t *testing.T) {
	out := run(t, benchFig, "-fig", "fig3", "-scale", "2048", "-procs", "1,2,4")
	if !strings.Contains(out, "== fig3") || !strings.Contains(out, "speedup") {
		t.Fatalf("fig3 output wrong:\n%s", out)
	}
	if !strings.Contains(out, "check [") {
		t.Fatalf("no checks emitted:\n%s", out)
	}
}

func TestBenchFigCSV(t *testing.T) {
	out := run(t, benchFig, "-fig", "abl-deg2", "-scale", "2048", "-csv")
	if !strings.Contains(out, "# abl-deg2") || !strings.Contains(out, "graph,variant,time") {
		t.Fatalf("CSV output wrong:\n%s", out)
	}
}

func TestBenchFigWallClockMode(t *testing.T) {
	out := run(t, benchFig, "-fig", "fig3", "-scale", "2048", "-mode", "wallclock", "-repeats", "1")
	if !strings.Contains(out, "== fig3") {
		t.Fatalf("wallclock run wrong:\n%s", out)
	}
	if strings.Contains(out, "check [") {
		t.Fatalf("wallclock mode must not emit modeled checks:\n%s", out)
	}
}

func TestBenchFigErrors(t *testing.T) {
	cases := [][]string{
		{"-fig", "nope"},
		{"-mode", "psychic"},
		{"-machine", "pdp11"},
		{"-procs", "0"},
		{"-procs", "a,b"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := RunBenchFig(args, &out, &out); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

func TestBenchFigStrict(t *testing.T) {
	// All checks pass at this scale, so -strict must succeed.
	run(t, benchFig, "-fig", "abl-deg2", "-scale", "4096", "-strict")
}

func TestSpanTreeTimeoutFlag(t *testing.T) {
	// A generous deadline must not disturb a normal run.
	out := run(t, spanTree, "-gen", "torus2d", "-n", "1024", "-p", "2", "-timeout", "5m")
	if !strings.Contains(out, "verified") {
		t.Fatalf("timed run did not verify:\n%s", out)
	}
	// A microscopic deadline must surface the typed deadline error.
	var buf bytes.Buffer
	err := RunSpanTree([]string{"-gen", "random", "-n", "500000", "-p", "4", "-timeout", "1ns"}, &buf, &buf)
	if err == nil {
		t.Fatal("1ns deadline did not abort the run")
	}
	if !errors.Is(err, spantree.ErrDeadline) && !errors.Is(err, spantree.ErrCanceled) {
		t.Fatalf("err = %v, want the typed deadline error", err)
	}
}

func TestSpanTreeValidateFlag(t *testing.T) {
	out := run(t, spanTree, "-gen", "random", "-n", "512", "-validate")
	if !strings.Contains(out, "verified") {
		t.Fatalf("validated run did not verify:\n%s", out)
	}
}

func TestSpanTreeChaosSeedFlag(t *testing.T) {
	var buf bytes.Buffer
	err := RunSpanTree([]string{"-gen", "torus2d", "-n", "256", "-chaos-seed", "7"}, &buf, &buf)
	if spantree.ChaosEnabled {
		if err != nil {
			t.Fatalf("chaos build rejected -chaos-seed: %v", err)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("err = %v, want the -tags chaos guidance", err)
	}
}
