package harness

import (
	"strings"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

func quickCfg() Config {
	return Config{
		Scale:  1 << 10,
		Procs:  []int{1, 2, 4},
		Seed:   7,
		Mode:   Modeled,
		Verify: true,
	}
}

func TestRegistryComplete(t *testing.T) {
	// DESIGN.md promises one experiment per figure plus the ablations.
	want := []string{
		"fig3",
		"fig4-torus-rowmajor", "fig4-torus-random", "fig4-random-nlogn",
		"fig4-2d60", "fig4-3d40", "fig4-ad3",
		"fig4-geo-flat", "fig4-geo-hier",
		"fig4-chain-seq", "fig4-chain-random",
		"abl-nosteal", "abl-nostub", "abl-svlock",
		"abl-deg2", "abl-fallback", "abl-hcs", "abl-machine", "abl-family", "abl-barriers", "abl-stublen",
		"abl-chunk", "abl-alg", "abl-shard",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from the registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID invented an experiment")
	}
}

func TestExperimentsRunAtQuickScale(t *testing.T) {
	cfg := quickCfg()
	for _, e := range All() {
		rep, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if rep.Table == nil || rep.Table.NumRows() == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		var sb strings.Builder
		if _, err := rep.WriteTo(&sb); err != nil {
			t.Fatalf("%s: WriteTo: %v", e.ID, err)
		}
		if !strings.Contains(sb.String(), e.ID) {
			t.Fatalf("%s: report does not name itself", e.ID)
		}
	}
}

func TestFig3ChecksPassAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale experiment")
	}
	cfg := quickCfg()
	cfg.Scale = 1 << 14
	cfg.Fig3Procs = 8
	e, _ := ByID("fig3")
	rep, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		var sb strings.Builder
		rep.WriteTo(&sb)
		t.Fatalf("fig3 shape checks failed:\n%s", sb.String())
	}
}

func TestFig4ShapeChecksAtModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale experiment")
	}
	cfg := quickCfg()
	cfg.Scale = 1 << 14
	for _, id := range []string{"fig4-torus-rowmajor", "fig4-random-nlogn", "fig4-chain-seq"} {
		e, _ := ByID(id)
		rep, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			var sb strings.Builder
			rep.WriteTo(&sb)
			t.Fatalf("%s shape checks failed:\n%s", id, rep.ID+"\n"+sb.String())
		}
	}
}

func TestWallClockMode(t *testing.T) {
	cfg := quickCfg()
	cfg.Mode = WallClock
	cfg.Repeats = 1
	e, _ := ByID("fig3")
	rep, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock mode never emits modeled shape checks.
	for _, c := range rep.Checks {
		t.Fatalf("wall-clock mode produced check %q", c.Name)
	}
}

func TestWallClockPerRepetitionReports(t *testing.T) {
	// Every wall-clock repetition must produce its own report: one
	// recorder shared across repeats would accumulate, making rep k's
	// counters k+1 times a single run's. Equal labels plus distinct
	// "rep" meta is also what cmd/benchcmp's min-over-reps relies on.
	cfg := quickCfg().withDefaults()
	cfg.Mode = WallClock
	cfg.Repeats = 3
	cfg.Collector = &obs.Collector{}
	g, err := gen.Generate(gen.Spec{Kind: "random", N: 1 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure(cfg, g, kindWS, 4, wsConfig{}); err != nil {
		t.Fatal(err)
	}
	runs := cfg.Collector.Runs()
	if len(runs) != cfg.Repeats {
		t.Fatalf("collected %d reports, want one per repetition (%d)", len(runs), cfg.Repeats)
	}
	seen := make(map[string]bool)
	for i, r := range runs {
		if r.Label != runs[0].Label {
			t.Errorf("report %d label %q differs from %q", i, r.Label, runs[0].Label)
		}
		rep := r.Meta["rep"]
		if seen[rep] {
			t.Errorf("duplicate rep meta %q", rep)
		}
		seen[rep] = true
		if got, want := r.Snapshot.Totals.VerticesClaimed, runs[0].Snapshot.Totals.VerticesClaimed; got != want {
			t.Errorf("rep %s claimed %d vertices, rep 0 claimed %d — recorder state leaked across repetitions", rep, got, want)
		}
		if r.ElapsedNS <= 0 {
			t.Errorf("rep %s has no elapsed time", rep)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale == 0 || len(c.Procs) == 0 || c.Fig3Procs == 0 || c.Repeats == 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	if c.Machine == (smpmodel.Machine{}) {
		t.Fatal("default machine missing")
	}
}

func TestModeString(t *testing.T) {
	if Modeled.String() != "modeled" || WallClock.String() != "wallclock" {
		t.Fatal("mode names wrong")
	}
}

func TestReportPassed(t *testing.T) {
	r := &Report{Checks: []Check{{Pass: true}, {Pass: true}}}
	if !r.Passed() {
		t.Fatal("all-pass report failed")
	}
	r.Checks = append(r.Checks, Check{Pass: false})
	if r.Passed() {
		t.Fatal("failing check ignored")
	}
}
