package stats

import (
	"strings"
	"testing"

	"spantree/internal/obs"
)

// artifactWith builds an obs artifact of (label, elapsed, attempts,
// successes) runs.
func artifactWith(runs ...obs.Report) *obs.Artifact {
	return &obs.Artifact{Schema: obs.Schema, SchemaVersion: obs.SchemaVersion, Runs: runs}
}

func run(label string, elapsedNS, attempts, successes int64) obs.Report {
	r := obs.Report{Schema: obs.Schema, Label: label, ElapsedNS: elapsedNS}
	r.Snapshot.Totals.StealAttempts = attempts
	r.Snapshot.Totals.StealSuccesses = successes
	return r
}

func TestCompareArtifactsPassAndFail(t *testing.T) {
	base := artifactWith(
		run("NewAlg/torus2d-64x64{n=4096 m=8192}/p=4", 10_000_000, 100, 80),
	)
	// Within tolerance: +10% wall, same hit rate.
	cur := artifactWith(
		run("NewAlg/torus2d-64x64{n=4096 m=8192}/p=4", 11_000_000, 100, 80),
	)
	res := CompareArtifacts(base, cur, BenchCompareOptions{})
	if len(res.Comparisons) != 1 || res.Failed() {
		t.Fatalf("within-tolerance comparison failed: %s", res.String())
	}

	// Wall regression beyond 15%.
	cur = artifactWith(run("NewAlg/torus2d-64x64{n=4096 m=8192}/p=4", 12_000_000, 100, 80))
	res = CompareArtifacts(base, cur, BenchCompareOptions{})
	if !res.Failed() {
		t.Fatalf("20%% wall regression passed: %s", res.String())
	}

	// Steal hit rate collapse at equal wall time.
	cur = artifactWith(run("NewAlg/torus2d-64x64{n=4096 m=8192}/p=4", 10_000_000, 100, 40))
	res = CompareArtifacts(base, cur, BenchCompareOptions{})
	if !res.Failed() {
		t.Fatalf("hit-rate collapse 0.80 -> 0.40 passed: %s", res.String())
	}
}

func TestCompareArtifactsPoolsRepetitions(t *testing.T) {
	// Three same-label repetitions: wall is the min, steal counts pool.
	base := artifactWith(run("NewAlg/g/p=2", 10_000_000, 10, 8))
	cur := artifactWith(
		run("NewAlg/g/p=2", 30_000_000, 10, 2),
		run("NewAlg/g/p=2", 10_500_000, 10, 10),
		run("NewAlg/g/p=2", 40_000_000, 10, 12),
	)
	res := CompareArtifacts(base, cur, BenchCompareOptions{})
	if res.Failed() {
		t.Fatalf("pooled comparison failed: %s", res.String())
	}
	c := res.Comparisons[0]
	if c.CurWallNS != 10_500_000 {
		t.Fatalf("wall = %d, want min over repetitions 10500000", c.CurWallNS)
	}
	if got, want := c.CurHitRate, 24.0/30.0; got != want {
		t.Fatalf("hit rate = %v, want pooled %v", got, want)
	}
}

func TestCompareArtifactsMinWallFloorAndUnmatched(t *testing.T) {
	base := artifactWith(
		run("NewAlg/tiny/p=1", 50_000, 0, 0),     // under the noise floor
		run("NewAlg/gone/p=1", 10_000_000, 0, 0), // absent from current
	)
	cur := artifactWith(run("NewAlg/tiny/p=1", 500_000, 0, 0)) // 10x slower but sub-floor
	res := CompareArtifacts(base, cur, BenchCompareOptions{MinWallNS: 1_000_000})
	if res.Failed() {
		t.Fatalf("sub-floor timing gated: %s", res.String())
	}
	if len(res.Comparisons) != 1 || res.Comparisons[0].WallChecked {
		t.Fatalf("sub-floor entry should be compared but not wall-checked: %+v", res.Comparisons)
	}
	if len(res.Unmatched) != 1 || res.Unmatched[0] != "NewAlg/gone/p=1" {
		t.Fatalf("unmatched = %v", res.Unmatched)
	}
}

func TestZeroAttemptsHitRateIsOne(t *testing.T) {
	// An always-busy run (p=1, no steals) must not read as a collapse.
	base := artifactWith(run("NewAlg/g/p=1", 10_000_000, 0, 0))
	cur := artifactWith(run("NewAlg/g/p=1", 10_000_000, 0, 0))
	res := CompareArtifacts(base, cur, BenchCompareOptions{})
	if res.Failed() || res.Comparisons[0].CurHitRate != 1 {
		t.Fatalf("zero-attempt hit rate: %+v", res.Comparisons)
	}
}

func TestCompareHotpathFamilyMapping(t *testing.T) {
	baseline := []byte(`{
		"schema": "spantree/bench/hotpath/v1",
		"benchmarks": [
			{"name": "BenchmarkFig4TorusRandom/newalg-p4", "after_ns_op": 3139279},
			{"name": "BenchmarkFig4GeoHier/newalg-p8", "after_ns_op": 2465722},
			{"name": "BenchmarkStealHalfOwnerPath/chunked-64", "after_ns_op": 1}
		]
	}`)
	cur := artifactWith(
		run("NewAlg/torus2d-256x256+randlabel{n=65536 m=131072}/p=4", 3_000_000, 50, 40),
		run("NewAlg/geohier-n65536{n=65536 m=196573}/p=8", 2_400_000, 50, 40),
		run("SV/torus2d-256x256+randlabel{n=65536 m=131072}/p=4", 1, 0, 0),
	)
	res, err := CompareHotpath(baseline, cur, BenchCompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparisons) != 2 {
		t.Fatalf("compared %d entries, want the 2 covered families: %s", len(res.Comparisons), res.String())
	}
	if res.Failed() {
		t.Fatalf("faster-than-baseline run failed: %s", res.String())
	}
	// A slower run must trip the gate at the default 15%.
	cur = artifactWith(run("NewAlg/torus2d-256x256+randlabel{n=65536 m=131072}/p=4", 4_000_000, 0, 0))
	res, err = CompareHotpath(baseline, cur, BenchCompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("27%% hot-path regression passed: %s", res.String())
	}
	// Wider tolerance (the cross-host smoke setting) lets it through.
	res, err = CompareHotpath(baseline, cur, BenchCompareOptions{WallTol: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("regression within widened tolerance failed: %s", res.String())
	}
}

func TestWallNoiseBudgetAndHardBound(t *testing.T) {
	// Identical binaries run back-to-back on a shared host leave a few
	// entries in the ±20% tail, so the nightly gate runs with a small
	// soft-breach allowance plus a hard per-entry bound.
	base := artifactWith(
		run("NewAlg/a/p=8", 100_000_000, 100, 80),
		run("NewAlg/b/p=8", 100_000_000, 100, 80),
		run("NewAlg/c/p=8", 100_000_000, 100, 80),
	)
	noisy := artifactWith(
		run("NewAlg/a/p=8", 122_000_000, 100, 80), // +22%: soft breach
		run("NewAlg/b/p=8", 119_000_000, 100, 80), // +19%: soft breach
		run("NewAlg/c/p=8", 101_000_000, 100, 80),
	)
	opt := BenchCompareOptions{WallNoiseBudget: 2, WallHardTol: 0.5}
	res := CompareArtifacts(base, noisy, opt)
	if res.Failed() {
		t.Fatalf("2 soft breaches within budget 2 failed: %s", res.String())
	}
	if n := res.softBreaches(); n != 2 {
		t.Fatalf("counted %d soft breaches, want 2", n)
	}

	// A third soft breach exhausts the budget.
	noisy.Runs[2] = run("NewAlg/c/p=8", 120_000_000, 100, 80)
	if res = CompareArtifacts(base, noisy, opt); !res.Failed() {
		t.Fatalf("3 soft breaches over budget 2 passed: %s", res.String())
	}

	// One entry past the hard bound fails regardless of remaining budget.
	blowup := artifactWith(
		run("NewAlg/a/p=8", 160_000_000, 100, 80), // +60% > hard 50%
		run("NewAlg/b/p=8", 100_000_000, 100, 80),
		run("NewAlg/c/p=8", 100_000_000, 100, 80),
	)
	if res = CompareArtifacts(base, blowup, opt); !res.Failed() {
		t.Fatalf("hard-bound breach excused by the noise budget: %s", res.String())
	}

	// A steal-rate collapse inside an otherwise-soft entry is never excused.
	collapse := artifactWith(
		run("NewAlg/a/p=8", 120_000_000, 100, 20), // +20% wall AND 0.8 -> 0.2
		run("NewAlg/b/p=8", 100_000_000, 100, 80),
		run("NewAlg/c/p=8", 100_000_000, 100, 80),
	)
	if res = CompareArtifacts(base, collapse, opt); !res.Failed() {
		t.Fatalf("steal collapse excused by the noise budget: %s", res.String())
	}
}

func TestMinStealAttemptsFloor(t *testing.T) {
	// A hit-rate swing over a few dozen attempts is binomial noise; the
	// floor keeps the steal gate on well-sampled entries only.
	base := artifactWith(
		run("NewAlg/small/p=8", 10_000_000, 57, 54),    // under the floor
		run("NewAlg/big/p=8", 100_000_000, 5000, 4500), // over the floor
	)
	cur := artifactWith(
		run("NewAlg/small/p=8", 10_000_000, 71, 52), // 0.95 -> 0.73: ignored
		run("NewAlg/big/p=8", 100_000_000, 5000, 4500),
	)
	res := CompareArtifacts(base, cur, BenchCompareOptions{MinStealAttempts: 100})
	if res.Failed() {
		t.Fatalf("under-sampled hit-rate swing gated: %s", res.String())
	}
	for _, c := range res.Comparisons {
		wantChecked := c.Name == "NewAlg/big/p=8"
		if c.StealChecked != wantChecked {
			t.Fatalf("%s StealChecked = %v, want %v", c.Name, c.StealChecked, wantChecked)
		}
	}

	// The floor must not mask a collapse on a well-sampled entry.
	cur = artifactWith(
		run("NewAlg/small/p=8", 10_000_000, 57, 54),
		run("NewAlg/big/p=8", 100_000_000, 5000, 2000),
	)
	if res = CompareArtifacts(base, cur, BenchCompareOptions{MinStealAttempts: 100}); !res.Failed() {
		t.Fatalf("well-sampled collapse passed under the floor: %s", res.String())
	}
}

func TestCompareHotpathRejectsWrongSchema(t *testing.T) {
	if _, err := CompareHotpath([]byte(`{"schema":"nope"}`), artifactWith(), BenchCompareOptions{}); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestVariantWarning(t *testing.T) {
	withMeta := func(label, shards string) obs.Report {
		r := run(label, 10_000_000, 0, 0)
		r.Meta = map[string]string{"shards": shards}
		return r
	}
	base := artifactWith(withMeta("NewAlg/g/p=4", "1"))
	same := artifactWith(withMeta("NewAlg/g/p=4", "1"))
	if w := VariantWarning(Variants(base), Variants(same)); w != "" {
		t.Fatalf("matching variants warned: %q", w)
	}
	shardDrift := artifactWith(withMeta("NewAlg/g/p=4", "4"))
	w := VariantWarning(Variants(base), Variants(shardDrift))
	if w == "" {
		t.Fatal("shards mismatch not warned")
	}

	// A "layout" stamp, left in the checked-in baselines from when the
	// traversal had two layouts, is ignored.
	wide := artifactWith(withMeta("NewAlg/g/p=4", "1"))
	wide.Runs[0].Meta["layout"] = "wide"
	compact := artifactWith(withMeta("NewAlg/g/p=4", "1"))
	compact.Runs[0].Meta["layout"] = "compact"
	if w := VariantWarning(Variants(wide), Variants(compact)); w != "" {
		t.Fatalf("layout stamp warned: %q", w)
	}

	// Artifacts that predate variant stamping stay silent: unknown is
	// not a mismatch.
	unstamped := artifactWith(run("NewAlg/g/p=4", 10_000_000, 0, 0))
	if w := VariantWarning(Variants(unstamped), Variants(shardDrift)); w != "" {
		t.Fatalf("unknown baseline warned: %q", w)
	}
	if w := VariantWarning(Variants(base), Variants(unstamped)); w != "" {
		t.Fatalf("unknown current warned: %q", w)
	}

	// Algorithm-family drift warns alongside shards: a spanuf baseline
	// compared against traversal numbers (or vice versa) is not a
	// regression signal.
	withAlg := func(label, alg string) obs.Report {
		r := run(label, 10_000_000, 0, 0)
		r.Meta = map[string]string{"alg": alg}
		return r
	}
	wsBase := artifactWith(withAlg("NewAlg/g/p=4", "workstealing"))
	ufCur := artifactWith(withAlg("SpanUF/g/p=4", "spanuf"))
	w = VariantWarning(Variants(wsBase), Variants(ufCur))
	if w == "" || !strings.Contains(w, "alg") {
		t.Fatalf("alg mismatch not warned: %q", w)
	}
	if w := VariantWarning(Variants(wsBase), Variants(artifactWith(withAlg("NewAlg/g/p=4", "workstealing")))); w != "" {
		t.Fatalf("matching alg warned: %q", w)
	}
}
