package stats

// Benchmark regression gating: compare a freshly measured metrics
// artifact (spantree/obs/v1, as written by cmd/benchfig -metrics or
// cmd/spantree -metrics) against a checked-in baseline and fail when
// wall-clock time or the steal hit rate regresses beyond a tolerance.
// Two baseline shapes are accepted:
//
//   - another obs artifact (the nightly pipeline's checked-in
//     results/BENCH_nightly_baseline.json), matched label-for-label;
//
//   - the hot-path overhaul record results/BENCH_hotpath.json
//     (spantree/bench/hotpath/v1), whose benchmark names are mapped onto
//     metric labels by graph family and processor count, gating only
//     wall-clock (the record predates steal-rate reporting).
//
// Wall-clock entries are summarized by the minimum over repetitions
// (the conventional benchmark estimator, and why the harness emits one
// same-label report per repetition); steal counters are pooled across
// repetitions before forming the hit rate, which stabilizes the ratio
// on runs with few attempts.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"spantree/internal/obs"
)

// BenchCompareOptions sets the regression tolerances.
type BenchCompareOptions struct {
	// WallTol is the allowed relative wall-clock slowdown: current may be
	// up to (1+WallTol) times the baseline. 0 means the default 0.15.
	WallTol float64
	// StealTol is the allowed relative drop in steal hit rate
	// (successes/attempts): current may be as low as (1-StealTol) times
	// the baseline rate. 0 means the default 0.15.
	StealTol float64
	// MinWallNS skips the wall-clock gate for baseline entries faster
	// than this (sub-noise timings on tiny inputs gate nothing reliably).
	// The steal-rate gate still applies.
	MinWallNS int64
	// WallNoiseBudget tolerates up to this many entries over WallTol
	// before the gate fails. Back-to-back runs of identical binaries on
	// a shared host show a few entries in the ±20% tail even at
	// min-of-3, so a per-entry gate needs a small allowance to separate
	// scheduler noise from a real regression (which moves many entries,
	// or one entry past WallHardTol). Default 0: every breach fails.
	WallNoiseBudget int
	// WallHardTol is a per-entry bound the noise budget never excuses
	// (catches a localized blowup hiding inside the budget). 0 disables.
	WallHardTol float64
	// MinStealAttempts skips the steal-rate gate for entries whose
	// baseline pooled under this many attempts: with a few dozen steals
	// the hit rate is binomial noise (identical binaries measured 0.95
	// and 0.73 on the same small input), not a signal. 0 gates all.
	MinStealAttempts int64
}

func (o BenchCompareOptions) withDefaults() BenchCompareOptions {
	if o.WallTol == 0 {
		o.WallTol = 0.15
	}
	if o.StealTol == 0 {
		o.StealTol = 0.15
	}
	return o
}

// BenchComparison is the verdict for one matched entry.
type BenchComparison struct {
	// Name is the baseline entry's identity (a metric label, or a
	// hot-path benchmark name).
	Name string
	// Wall-clock, in nanoseconds (min over repetitions); WallChecked is
	// false when the baseline timing was under MinWallNS.
	BaseWallNS  int64
	CurWallNS   int64
	WallChecked bool
	// Steal hit rate (pooled successes/attempts, 1.0 when no attempts);
	// StealChecked is false for baselines without steal counters.
	BaseHitRate  float64
	CurHitRate   float64
	StealChecked bool
	// Failures lists the gates this entry broke (empty = pass).
	Failures []string
	// WallSoftOnly marks an entry whose only breach is the soft
	// wall-clock tolerance — the kind WallNoiseBudget may excuse.
	WallSoftOnly bool
}

// BenchCompareResult is the outcome of one baseline/current comparison.
type BenchCompareResult struct {
	Comparisons []BenchComparison
	// Unmatched lists baseline entries with no current counterpart.
	Unmatched []string
	// WallNoiseBudget echoes the option used, for Failed and String.
	WallNoiseBudget int
}

// Failed reports whether the comparison breaks the gate: any steal-rate
// or hard wall-clock breach fails outright; soft wall-clock breaches
// fail only when they outnumber the noise budget.
func (r *BenchCompareResult) Failed() bool {
	soft := 0
	for _, c := range r.Comparisons {
		if len(c.Failures) == 0 {
			continue
		}
		if c.WallSoftOnly {
			soft++
			continue
		}
		return true
	}
	return soft > r.WallNoiseBudget
}

// softBreaches counts entries whose only failure is the soft wall gate.
func (r *BenchCompareResult) softBreaches() int {
	n := 0
	for _, c := range r.Comparisons {
		if len(c.Failures) > 0 && c.WallSoftOnly {
			n++
		}
	}
	return n
}

// String renders the comparison as an aligned text report.
func (r *BenchCompareResult) String() string {
	var b strings.Builder
	for _, c := range r.Comparisons {
		status := "ok  "
		if len(c.Failures) > 0 {
			status = "FAIL"
			if c.WallSoftOnly && r.WallNoiseBudget > 0 {
				status = "warn"
			}
		}
		fmt.Fprintf(&b, "%s %s", status, c.Name)
		if c.WallChecked {
			fmt.Fprintf(&b, "  wall %.3fms -> %.3fms (%+.1f%%)",
				float64(c.BaseWallNS)/1e6, float64(c.CurWallNS)/1e6,
				100*(float64(c.CurWallNS)/float64(c.BaseWallNS)-1))
		}
		if c.StealChecked {
			fmt.Fprintf(&b, "  stealhit %.3f -> %.3f", c.BaseHitRate, c.CurHitRate)
		}
		b.WriteByte('\n')
		for _, f := range c.Failures {
			fmt.Fprintf(&b, "     ^ %s\n", f)
		}
	}
	for _, u := range r.Unmatched {
		fmt.Fprintf(&b, "skip %s: no matching entry in current metrics\n", u)
	}
	if r.WallNoiseBudget > 0 {
		fmt.Fprintf(&b, "wall-clock noise budget: %d/%d soft breaches used\n",
			r.softBreaches(), r.WallNoiseBudget)
	}
	return b.String()
}

// benchEntry is one label's pooled measurement.
type benchEntry struct {
	wallNS    int64 // min elapsed over repetitions (0 = no timing)
	attempts  int64
	successes int64
}

func (e benchEntry) hitRate() float64 {
	if e.attempts == 0 {
		return 1
	}
	return float64(e.successes) / float64(e.attempts)
}

// poolRuns groups an artifact's reports by label, taking the minimum
// elapsed time and summing steal counters over same-label repetitions.
func poolRuns(a *obs.Artifact) map[string]benchEntry {
	out := make(map[string]benchEntry)
	for _, run := range a.Runs {
		e := out[run.Label]
		if run.ElapsedNS > 0 && (e.wallNS == 0 || run.ElapsedNS < e.wallNS) {
			e.wallNS = run.ElapsedNS
		}
		e.attempts += run.Snapshot.Totals.StealAttempts
		e.successes += run.Snapshot.Totals.StealSuccesses
		out[run.Label] = e
	}
	return out
}

func compareEntry(name string, base, cur benchEntry, stealKnown bool, o BenchCompareOptions) BenchComparison {
	c := BenchComparison{Name: name}
	if base.wallNS > 0 && cur.wallNS > 0 && base.wallNS >= o.MinWallNS {
		c.WallChecked = true
		c.BaseWallNS, c.CurWallNS = base.wallNS, cur.wallNS
		slow := float64(cur.wallNS) / float64(base.wallNS)
		switch {
		case o.WallHardTol > 0 && slow > 1+o.WallHardTol:
			c.Failures = append(c.Failures, fmt.Sprintf(
				"wall-clock regressed %.1f%% (hard bound %.0f%%)",
				100*(slow-1), 100*o.WallHardTol))
		case slow > 1+o.WallTol:
			c.Failures = append(c.Failures, fmt.Sprintf(
				"wall-clock regressed %.1f%% (tolerance %.0f%%)",
				100*(slow-1), 100*o.WallTol))
			c.WallSoftOnly = true
		}
	}
	if stealKnown && base.attempts >= o.MinStealAttempts {
		c.StealChecked = true
		c.BaseHitRate, c.CurHitRate = base.hitRate(), cur.hitRate()
		if c.CurHitRate < c.BaseHitRate*(1-o.StealTol) {
			c.Failures = append(c.Failures, fmt.Sprintf(
				"steal hit rate dropped %.3f -> %.3f (tolerance %.0f%%)",
				c.BaseHitRate, c.CurHitRate, 100*o.StealTol))
			c.WallSoftOnly = false
		}
	}
	return c
}

// CompareArtifacts gates current against a baseline obs artifact,
// label-for-label. Labels present only on one side are reported as
// unmatched, not failed: experiments come and go, and the nightly
// baseline is refreshed deliberately.
func CompareArtifacts(baseline, current *obs.Artifact, opt BenchCompareOptions) *BenchCompareResult {
	o := opt.withDefaults()
	base := poolRuns(baseline)
	cur := poolRuns(current)
	res := &BenchCompareResult{WallNoiseBudget: o.WallNoiseBudget}
	labels := make([]string, 0, len(base))
	for l := range base {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		c, ok := cur[l]
		if !ok {
			res.Unmatched = append(res.Unmatched, l)
			continue
		}
		res.Comparisons = append(res.Comparisons, compareEntry(l, base[l], c, true, o))
	}
	return res
}

// HotpathSchema identifies results/BENCH_hotpath.json.
const HotpathSchema = "spantree/bench/hotpath/v1"

// hotpathBaseline is the subset of the hot-path record the gate needs.
type hotpathBaseline struct {
	Schema     string `json:"schema"`
	Benchmarks []struct {
		Name      string  `json:"name"`
		AfterNsOp float64 `json:"after_ns_op"`
	} `json:"benchmarks"`
}

// hotpathFamilies maps a hot-path benchmark family onto the substrings a
// metric label must contain to measure the same input. The record's
// families were measured on torus-with-random-labels and hierarchical
// geometric inputs (the two the batched-hot-path PR reported).
var hotpathFamilies = map[string][]string{
	"Fig4TorusRandom": {"torus2d", "randlabel"},
	"Fig4GeoHier":     {"geohier"},
}

// matchHotpathName parses "BenchmarkFig4TorusRandom/newalg-p8" into its
// label predicates; ok is false for names the gate does not cover
// (other algorithms, unknown families).
func matchHotpathName(name string) (substrs []string, pSuffix string, ok bool) {
	name = strings.TrimPrefix(name, "Benchmark")
	family, variant, found := strings.Cut(name, "/")
	if !found {
		return nil, "", false
	}
	subs, known := hotpathFamilies[family]
	if !known || !strings.HasPrefix(variant, "newalg-p") {
		return nil, "", false
	}
	return subs, "/p=" + strings.TrimPrefix(variant, "newalg-p"), true
}

// CompareHotpath gates current against the hot-path overhaul record:
// each covered benchmark's after_ns_op is compared with the minimum
// elapsed time over the current labels that name the same graph family
// and processor count (wall-clock only; the record has no steal
// counters). Only "NewAlg" labels are considered.
func CompareHotpath(baselineJSON []byte, current *obs.Artifact, opt BenchCompareOptions) (*BenchCompareResult, error) {
	o := opt.withDefaults()
	var hb hotpathBaseline
	if err := json.Unmarshal(baselineJSON, &hb); err != nil {
		return nil, fmt.Errorf("stats: decoding hot-path baseline: %w", err)
	}
	if hb.Schema != HotpathSchema {
		return nil, fmt.Errorf("stats: baseline schema %q, want %q", hb.Schema, HotpathSchema)
	}
	cur := poolRuns(current)
	res := &BenchCompareResult{WallNoiseBudget: o.WallNoiseBudget}
	for _, b := range hb.Benchmarks {
		subs, pSuffix, ok := matchHotpathName(b.Name)
		if !ok {
			continue
		}
		var best benchEntry
		for label, e := range cur {
			if !strings.HasPrefix(label, "NewAlg/") || !strings.HasSuffix(label, pSuffix) {
				continue
			}
			matched := true
			for _, s := range subs {
				if !strings.Contains(label, s) {
					matched = false
					break
				}
			}
			if !matched || e.wallNS == 0 {
				continue
			}
			if best.wallNS == 0 || e.wallNS < best.wallNS {
				best = e
			}
		}
		if best.wallNS == 0 {
			res.Unmatched = append(res.Unmatched, b.Name)
			continue
		}
		base := benchEntry{wallNS: int64(b.AfterNsOp)}
		res.Comparisons = append(res.Comparisons, compareEntry(b.Name, base, best, false, o))
	}
	return res, nil
}

// TraversalVariants is the set of measurement policies an obs
// artifact's parallel runs were measured under, collected from the
// "alg" and "shards" run meta the harness stamps. Empty slices mean the
// artifact predates variant stamping (or has no stamped runs) —
// unknown, so nothing to warn about.
type TraversalVariants struct {
	Algs   []string
	Shards []string
}

// Variants collects an artifact's distinct alg and shards stamps.
func Variants(a *obs.Artifact) TraversalVariants {
	return TraversalVariants{
		Algs:   metaSet(a, "alg"),
		Shards: metaSet(a, "shards"),
	}
}

func metaSet(a *obs.Artifact, key string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range a.Runs {
		if v, ok := r.Meta[key]; ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// VariantWarning renders a warning line when the baseline and current
// artifacts were measured under different algorithm families or shard
// counts, or "" when they agree (or either side is unknown). Like a
// host-shape mismatch, a variant mismatch makes the timings
// incomparable without being a code regression, so the gate warns
// instead of failing.
func VariantWarning(base, cur TraversalVariants) string {
	var parts []string
	if d := variantDiff("alg", base.Algs, cur.Algs); d != "" {
		parts = append(parts, d)
	}
	if d := variantDiff("shards", base.Shards, cur.Shards); d != "" {
		parts = append(parts, d)
	}
	if len(parts) == 0 {
		return ""
	}
	return "warning: traversal variant differs — " + strings.Join(parts, "; ") +
		"; timings are not comparable across variants"
}

func variantDiff(name string, base, cur []string) string {
	if len(base) == 0 || len(cur) == 0 {
		return "" // unknown on one side: nothing to compare
	}
	if strings.Join(base, ",") == strings.Join(cur, ",") {
		return ""
	}
	return fmt.Sprintf("baseline %s %s, current %s",
		name, strings.Join(base, ","), strings.Join(cur, ","))
}

// LoadBenchBaseline reads a baseline file and dispatches on its schema,
// returning a closure that compares a current artifact against it, the
// baseline's host shape, and its traversal variants (both zero for
// baselines that predate the stamping, e.g. the hot-path record).
func LoadBenchBaseline(path string) (func(current *obs.Artifact, opt BenchCompareOptions) (*BenchCompareResult, error), obs.HostShape, TraversalVariants, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, obs.HostShape{}, TraversalVariants{}, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, obs.HostShape{}, TraversalVariants{}, fmt.Errorf("stats: decoding baseline %s: %w", path, err)
	}
	switch probe.Schema {
	case HotpathSchema:
		return func(current *obs.Artifact, opt BenchCompareOptions) (*BenchCompareResult, error) {
			return CompareHotpath(data, current, opt)
		}, obs.HostShape{}, TraversalVariants{}, nil
	case obs.Schema, obs.SchemaV1:
		// v1 baselines decode through the same structs: the counter
		// fields are a strict subset of v2's and obs.Event's decoder
		// accepts the legacy anonymous "a"/"b" payload spellings, so
		// existing recorded baselines keep comparing unchanged.
		var a obs.Artifact
		if err := json.Unmarshal(data, &a); err != nil {
			return nil, obs.HostShape{}, TraversalVariants{}, fmt.Errorf("stats: decoding baseline %s: %w", path, err)
		}
		return func(current *obs.Artifact, opt BenchCompareOptions) (*BenchCompareResult, error) {
			return CompareArtifacts(&a, current, opt), nil
		}, a.Host, Variants(&a), nil
	}
	return nil, obs.HostShape{}, TraversalVariants{}, fmt.Errorf("stats: baseline %s has unsupported schema %q", path, probe.Schema)
}
