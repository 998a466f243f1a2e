package harness

import (
	"fmt"

	"spantree/internal/core"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/stats"
)

// The ablation experiments isolate the design choices the paper calls
// out: work stealing itself, the stub spanning tree, CAS elections vs
// locks in SV, degree-2 elimination, the
// pathological-case fallback, the HCS-behaves-like-SV observation, and
// the machine-profile sensitivity of the modeled results.
func registerAblations() {
	register(Experiment{
		ID:          "abl-nosteal",
		Title:       "Ablation: work stealing on vs off",
		Description: "The paper's Fig. 2 argument: without stealing, the stub walk's clustered seeds leave most processors idle. Compares time and load imbalance at the largest p.",
		run:         runAblNoSteal,
	})
	register(Experiment{
		ID:          "abl-nostub",
		Title:       "Ablation: stub spanning tree vs single seed",
		Description: "Without the stub tree only one processor has initial work, so everything must be stolen.",
		run:         runAblNoStub,
	})
	register(Experiment{
		ID:          "abl-svlock",
		Title:       "Ablation: SV election by CAS vs per-root locks",
		Description: "The paper: 'the locking approach intuitively is slow and not scalable, and our test results agree.'",
		run:         runAblSVLock,
	})
	register(Experiment{
		ID:          "abl-deg2",
		Title:       "Ablation: degree-2 elimination preprocessing",
		Description: "The paper's preprocessing step; dramatic on chain-like inputs.",
		run:         runAblDeg2,
	})
	register(Experiment{
		ID:          "abl-fallback",
		Title:       "Ablation: pathological-case detection and SV fallback",
		Description: "Forces the idle-detection threshold on the degenerate chain and verifies the SV completion produces a valid tree.",
		run:         runAblFallback,
	})
	register(Experiment{
		ID:          "abl-hcs",
		Title:       "Ablation: HCS vs SV",
		Description: "The paper implemented HCS, found it performs like SV, and dropped it from the plots; this confirms the observation.",
		run:         runAblHCS,
	})
	register(Experiment{
		ID:          "abl-family",
		Title:       "Ablation: the full connectivity-algorithm family",
		Description: "Sequential BFS, SV, HCS, Awerbuch-Shiloach, random mating and the work-stealing algorithm on the labeling-adversarial torus — the survey comparison behind the paper's choice of baselines.",
		run:         runAblFamily,
	})
	register(Experiment{
		ID:          "abl-chunk",
		Title:       "Ablation: drain chunk size (1 / 64 / default)",
		Description: "The default drain chunk against per-vertex locking (chunk 1) and a smaller batch (chunk 64), across deep-frontier (torus, geometric), high-diameter (chain) and small-input-high-p shapes.",
		run:         runAblChunk,
	})
	register(Experiment{
		ID:          "abl-stublen",
		Title:       "Ablation: stub walk length",
		Description: "The paper specifies an O(p)-step random walk for the stub spanning tree; this sweeps the walk length to show the choice is insensitive as long as every processor gets a seed.",
		run:         runAblStubLen,
	})
	register(Experiment{
		ID:          "abl-barriers",
		Title:       "Ablation: O(1) barriers vs one barrier per BFS level",
		Description: "The paper's Section 3 synchronization argument: the work-stealing traversal uses a constant number of barriers while a level-synchronous parallel BFS pays one per level — Θ(diameter) on meshes.",
		run:         runAblBarriers,
	})
	register(Experiment{
		ID:          "abl-alg",
		Title:       "Ablation: work-stealing traversal vs edge-centric CAS-hook sweep",
		Description: "The algorithm-family cross on the Fig. 4 shapes: the paper's vertex-centric traversal (frontier queues, overlappable misses, diameter-long span) against the spanuf union-find sweep (flat edge loop, CAS elections, serially-dependent pointer chases). Measured shape: the traversal's cheaper overlappable per-edge traffic wins the low-diameter families by a wide margin, but its chain parallelism collapses onto one processor, so the sweep — whose span has no diameter term — collapses the gap there to near parity (within a few percent at 2^16, about 1.3x at paper scale, where per-edge CAS+chase constants dominate). The checks pin the scale-robust relative shape, not the sign of the chain difference.",
		run:         runAblAlg,
	})
	register(Experiment{
		ID:          "abl-machine",
		Title:       "Ablation: cost-model machine profile sensitivity",
		Description: "Re-evaluates the Fig. 3 headline point under the E4500-like and modern-x86 profiles; the shape conclusion (who wins) must survive the swap.",
		run:         runAblMachine,
	})
}

func runAblNoSteal(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	g := gen.Torus2D(s, s)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-nosteal", Title: "work stealing on vs off (torus, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("variant", "time", "detail")

	on, err := measure(cfg, g, kindWS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	off, err := measure(cfg, g, kindWS, p, wsConfig{noSteal: true})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("steal", stats.FormatDuration(on.time), on.extra)
	rep.Table.AddRow("nosteal", stats.FormatDuration(off.time), off.extra)
	if cfg.Mode == Modeled {
		rep.Checks = append(rep.Checks, Check{
			Name:   "stealing is faster than no stealing",
			Pass:   on.time < off.time,
			Detail: fmt.Sprintf("steal %v vs nosteal %v", stats.FormatDuration(on.time), stats.FormatDuration(off.time)),
		})
	}
	return rep, nil
}

func runAblNoStub(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	g := gen.Torus2D(s, s)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-nostub", Title: "stub tree vs single seed (torus, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("variant", "time", "detail")
	with, err := measure(cfg, g, kindWS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	without, err := measure(cfg, g, kindWS, p, wsConfig{noStub: true})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("stub", stats.FormatDuration(with.time), with.extra)
	rep.Table.AddRow("nostub", stats.FormatDuration(without.time), without.extra)
	if cfg.Mode == Modeled {
		rep.Checks = append(rep.Checks, Check{
			Name:   "stub seeding is not slower than single-seed",
			Pass:   with.time <= without.time*11/10,
			Detail: fmt.Sprintf("stub %v vs nostub %v", stats.FormatDuration(with.time), stats.FormatDuration(without.time)),
		})
	}
	return rep, nil
}

func runAblSVLock(cfg Config) (*Report, error) {
	n := cfg.Scale
	g := gen.Random(n, 3*n/2, cfg.Seed)
	rep := &Report{ID: "abl-svlock", Title: "SV election: CAS vs per-root locks (random graph)"}
	rep.Table = stats.NewTable("variant", "p", "time", "detail")
	p := maxProcs(cfg)
	cas, err := measure(cfg, g, kindSV, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	lock, err := measure(cfg, g, kindSVLocks, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("cas", fmt.Sprint(p), stats.FormatDuration(cas.time), cas.extra)
	rep.Table.AddRow("locks", fmt.Sprint(p), stats.FormatDuration(lock.time), lock.extra)
	if cfg.Mode == Modeled {
		rep.Checks = append(rep.Checks, Check{
			Name:   "CAS election beats locks",
			Pass:   cas.time < lock.time,
			Detail: fmt.Sprintf("cas %v vs locks %v", stats.FormatDuration(cas.time), stats.FormatDuration(lock.time)),
		})
	}
	return rep, nil
}

func runAblDeg2(cfg Config) (*Report, error) {
	rep := &Report{ID: "abl-deg2", Title: "degree-2 elimination on chain-like inputs"}
	rep.Table = stats.NewTable("graph", "variant", "time")
	p := maxProcs(cfg)
	pass := true
	for _, g := range []*graph.Graph{gen.Chain(cfg.Scale), gen.Caterpillar(cfg.Scale)} {
		off, err := measure(cfg, g, kindWS, p, wsConfig{})
		if err != nil {
			return nil, err
		}
		on, err := measure(cfg, g, kindWS, p, wsConfig{deg2: true})
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(g.Name, "plain", stats.FormatDuration(off.time))
		rep.Table.AddRow(g.Name, "deg2", stats.FormatDuration(on.time))
		if g.Name[:5] == "chain" && on.time >= off.time {
			pass = false
		}
	}
	if cfg.Mode == Modeled {
		rep.Checks = append(rep.Checks, Check{
			Name:   "elimination wins on the pure chain",
			Pass:   pass,
			Detail: "chain reduces to O(1) vertices",
		})
	}
	return rep, nil
}

func runAblFallback(cfg Config) (*Report, error) {
	g := gen.Chain(cfg.Scale)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-fallback", Title: "idle detection and SV fallback (degenerate chain, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("variant", "time", "detail")
	plain, err := measure(cfg, g, kindWS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	fb, err := measure(cfg, g, kindWS, p, wsConfig{fallbackAtP: true})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("no-detection", stats.FormatDuration(plain.time), plain.extra)
	rep.Table.AddRow("detect+fallback", stats.FormatDuration(fb.time), fb.extra)
	rep.Checks = append(rep.Checks, Check{
		Name:   "fallback triggers on the chain and still yields a verified tree",
		Pass:   contains(fb.extra, "fallback=yes"),
		Detail: fb.extra,
	})
	return rep, nil
}

func runAblHCS(cfg Config) (*Report, error) {
	n := cfg.Scale
	g := gen.Random(n, 3*n/2, cfg.Seed)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-hcs", Title: "HCS vs SV (random graph, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("algorithm", "time", "detail")
	sv, err := measure(cfg, g, kindSV, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	hcs, err := measure(cfg, g, kindHCS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("SV", stats.FormatDuration(sv.time), sv.extra)
	rep.Table.AddRow("HCS", stats.FormatDuration(hcs.time), hcs.extra)
	if cfg.Mode == Modeled {
		ratio := float64(hcs.time) / float64(sv.time)
		rep.Checks = append(rep.Checks, Check{
			Name:   "HCS performs like SV (paper's reason to drop it)",
			Pass:   ratio > 0.33 && ratio < 3.0,
			Detail: fmt.Sprintf("HCS/SV time ratio %.2f", ratio),
		})
	}
	return rep, nil
}

func runAblFamily(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	g := graph.RandomRelabel(gen.Torus2D(s, s), cfg.Seed^0xA5A5)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-family", Title: "connectivity-algorithm family (torus, random labeling, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("algorithm", "time", "detail")

	seq, err := measure(cfg, g, kindSeqBFS, 1, wsConfig{})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("Sequential", stats.FormatDuration(seq.time), "")
	times := map[algoKind]measurement{}
	for _, kind := range []algoKind{kindSV, kindHCS, kindAS, kindRM, kindWS} {
		m, err := measure(cfg, g, kind, p, wsConfig{})
		if err != nil {
			return nil, err
		}
		times[kind] = m
		rep.Table.AddRow(m.algo, stats.FormatDuration(m.time), m.extra)
	}
	if cfg.Mode == Modeled {
		pass := true
		for _, kind := range []algoKind{kindSV, kindHCS, kindAS, kindRM} {
			if times[kindWS].time >= times[kind].time {
				pass = false
			}
		}
		rep.Checks = append(rep.Checks, Check{
			Name: "the new algorithm beats every graft-and-shortcut baseline",
			Pass: pass,
			Detail: fmt.Sprintf("NewAlg %v vs SV %v, HCS %v, AS %v, RandMate %v",
				stats.FormatDuration(times[kindWS].time), stats.FormatDuration(times[kindSV].time),
				stats.FormatDuration(times[kindHCS].time), stats.FormatDuration(times[kindAS].time),
				stats.FormatDuration(times[kindRM].time)),
		})
	}
	return rep, nil
}

func runAblChunk(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	p := maxProcs(cfg)
	small := 2048
	if small > cfg.Scale {
		small = cfg.Scale
	}
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus-random", graph.RandomRelabel(gen.Torus2D(s, s), cfg.Seed^0xC4C4)},
		{"geo-hier", gen.GeoHier(cfg.Scale, gen.DefaultGeoHierParams(), cfg.Seed)},
		{"chain", gen.Chain(cfg.Scale)},
		{"small-randconn", gen.RandomConnected(small, 3*small/2, cfg.Seed)},
	}
	def := fmt.Sprintf("default-%d", par.DefaultChunkSize)
	variants := []struct {
		name  string
		chunk int
	}{
		{"chunk-1", 1},
		{"chunk-64", 64},
		{def, par.DefaultChunkSize},
	}
	rep := &Report{ID: "abl-chunk", Title: "drain chunk size sweep (p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("graph", "variant", "time", "stealhit")
	times := map[string]map[string]measurement{}
	hits := map[string]map[string]float64{}
	for _, fam := range families {
		times[fam.name] = map[string]measurement{}
		hits[fam.name] = map[string]float64{}
		for _, v := range variants {
			var st core.Stats
			m, err := measure(cfg, fam.g, kindWS, p, wsConfig{chunkSize: v.chunk, statsOut: &st})
			if err != nil {
				return nil, err
			}
			times[fam.name][v.name] = m
			hits[fam.name][v.name] = st.StealHitRate()
			rep.Table.AddRow(fam.name, v.name, stats.FormatDuration(m.time),
				fmt.Sprintf("%.3f", st.StealHitRate()))
		}
	}
	if cfg.Mode == Modeled {
		// Under the lockstep model the chunk is cost-only, so the steal
		// schedule (and hit rate) is variant-invariant by construction;
		// the meaningful modeled comparisons are the charged times.
		deep := []string{"torus-random", "geo-hier"}
		detail := func(ref string) string {
			return fmt.Sprintf("torus %s %v vs %s %v; geo %v vs %v", def,
				stats.FormatDuration(times["torus-random"][def].time), ref,
				stats.FormatDuration(times["torus-random"][ref].time),
				stats.FormatDuration(times["geo-hier"][def].time),
				stats.FormatDuration(times["geo-hier"][ref].time))
		}
		batchWins, nearSmall := true, true
		for _, f := range deep {
			d := times[f][def].time
			if d >= times[f]["chunk-1"].time {
				batchWins = false
			}
			if d > times[f]["chunk-64"].time*11/10 {
				nearSmall = false
			}
		}
		rep.Checks = append(rep.Checks,
			Check{Name: "default chunk beats per-vertex locking on deep frontiers",
				Pass: batchWins, Detail: detail("chunk-1")},
			Check{Name: "default chunk stays within 10% of chunk 64",
				Pass: nearSmall, Detail: detail("chunk-64")})
	} else {
		// Wall-clock: the steal hit rate is a real (scheduler-dependent)
		// signal; surface the shallow-frontier comparison as a finding
		// rather than a hard check, since single-host noise is large.
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"shallow-frontier steal hit rates pooled over %d reps: chain %s %.3f vs chunk-64 %.3f; small-randconn %s %.3f vs chunk-64 %.3f vs chunk-1 %.3f",
			cfg.Repeats,
			def, hits["chain"][def], hits["chain"]["chunk-64"],
			def, hits["small-randconn"][def], hits["small-randconn"]["chunk-64"],
			hits["small-randconn"]["chunk-1"]))
	}
	return rep, nil
}

func runAblAlg(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	pmax := maxProcs(cfg)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		// The traversal's home turf: low diameter, bounded degree.
		{"torus-random", graph.RandomRelabel(gen.Torus2D(s, s), cfg.Seed^0xA5A5)},
		// High-degree, low-diameter: the sweep's compression amortizes.
		{"random-nlogn", gen.Random(cfg.Scale, cfg.Scale*log2(cfg.Scale), cfg.Seed)},
		{"geo-hier", gen.GeoHier(cfg.Scale, gen.DefaultGeoHierParams(), cfg.Seed)},
		// Diameter n: the traversal's pathological case, the sweep's
		// indifference point.
		{"chain", gen.Chain(cfg.Scale)},
	}
	kinds := []struct {
		name string
		kind algoKind
	}{
		{"NewAlg", kindWS},
		{"SpanUF", kindSpanUF},
	}
	rep := &Report{ID: "abl-alg", Title: "traversal vs CAS-hook sweep (p = 1, " + fmt.Sprint(pmax) + ")"}
	rep.Table = stats.NewTable("graph", "algorithm", "p", "time", "detail")
	// times[family][algo][p]
	times := map[string]map[string]map[int]measurement{}
	for _, fam := range families {
		times[fam.name] = map[string]map[int]measurement{}
		for _, k := range kinds {
			times[fam.name][k.name] = map[int]measurement{}
			for _, p := range []int{1, pmax} {
				m, err := measure(cfg, fam.g, k.kind, p, wsConfig{})
				if err != nil {
					return nil, err
				}
				times[fam.name][k.name][p] = m
				rep.Table.AddRow(fam.name, k.name, fmt.Sprint(p), stats.FormatDuration(m.time), m.extra)
				if p == 1 && p == pmax {
					break
				}
			}
		}
	}
	if cfg.Mode == Modeled {
		// The shape checks encode what actually holds in the Helman-JáJá
		// model at both 2^16 and paper scale, not the folklore version of
		// the crossover. The sweep pays more per edge (two finds plus a
		// CAS election, priced as serially-dependent chases and RMWs)
		// than the traversal's overlappable queue traffic, so at p <= 8
		// the traversal wins every family outright. What distinguishes
		// the sweep is the absence of any diameter term: on the chain —
		// the traversal's pathological case, where its parallelism
		// collapses onto one processor — the gap shrinks from ~10x (torus)
		// to ~1x, crossing below 1 at small scale. The checks pin the
		// relative shape (gap collapse, scaling) rather than the
		// scale-dependent sign of the chain difference.
		rep.Checks = append(rep.Checks, Check{
			Name: "the traversal's overlappable traffic wins the low-diameter mesh",
			Pass: times["torus-random"]["NewAlg"][pmax].time < times["torus-random"]["SpanUF"][pmax].time,
			Detail: fmt.Sprintf("torus NewAlg %v vs SpanUF %v at p=%d",
				stats.FormatDuration(times["torus-random"]["NewAlg"][pmax].time),
				stats.FormatDuration(times["torus-random"]["SpanUF"][pmax].time), pmax),
		})
		// ratio = SpanUF/NewAlg in percent, at pmax.
		ratio := func(fam string) int64 {
			return int64(times[fam]["SpanUF"][pmax].time) * 100 /
				int64(times[fam]["NewAlg"][pmax].time)
		}
		rep.Checks = append(rep.Checks, Check{
			Name: "diameter indifference collapses the gap on the chain",
			Pass: ratio("chain") < ratio("torus-random")/2,
			Detail: fmt.Sprintf("SpanUF/NewAlg ratio %d%% on the chain vs %d%% on the torus at p=%d",
				ratio("chain"), ratio("torus-random"), pmax),
		})
		rep.Checks = append(rep.Checks, Check{
			Name: "the sweep scales decisively where degrees are high",
			Pass: pmax == 1 || times["random-nlogn"]["SpanUF"][pmax].time <
				times["random-nlogn"]["SpanUF"][1].time*2/3,
			Detail: fmt.Sprintf("random-nlogn SpanUF %v at p=1 -> %v at p=%d",
				stats.FormatDuration(times["random-nlogn"]["SpanUF"][1].time),
				stats.FormatDuration(times["random-nlogn"]["SpanUF"][pmax].time), pmax),
		})
		noHarm := true
		detail := ""
		for _, fam := range families {
			one := times[fam.name]["SpanUF"][1].time
			many := times[fam.name]["SpanUF"][pmax].time
			if many > one*21/20 {
				noHarm = false
			}
			detail += fmt.Sprintf("%s %v->%v ", fam.name,
				stats.FormatDuration(one), stats.FormatDuration(many))
		}
		rep.Checks = append(rep.Checks, Check{
			Name:   "more processors never hurt the sweep (no diameter term in its span)",
			Pass:   noHarm,
			Detail: detail,
		})
	}
	return rep, nil
}

func runAblStubLen(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	g := gen.Torus2D(s, s)
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-stublen", Title: "stub walk length sweep (torus, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("stub-steps", "time", "detail")
	var times []measurement
	for _, steps := range []int{p, 2 * p, 8 * p, 64 * p} {
		m, err := measure(cfg, g, kindWS, p, wsConfig{stubSteps: steps})
		if err != nil {
			return nil, err
		}
		times = append(times, m)
		rep.Table.AddRow(fmt.Sprint(steps), stats.FormatDuration(m.time), m.extra)
	}
	if cfg.Mode == Modeled {
		lo, hi := times[0].time, times[0].time
		for _, m := range times {
			if m.time < lo {
				lo = m.time
			}
			if m.time > hi {
				hi = m.time
			}
		}
		rep.Checks = append(rep.Checks, Check{
			Name:   "running time is insensitive to the stub length",
			Pass:   hi <= lo*12/10,
			Detail: fmt.Sprintf("range %v - %v across 1p..64p steps", stats.FormatDuration(lo), stats.FormatDuration(hi)),
		})
	}
	return rep, nil
}

func runAblBarriers(cfg Config) (*Report, error) {
	s := sqrtSide(cfg.Scale)
	g := gen.Torus2D(s, s) // diameter ~ s: the barrier-hostile regime
	p := maxProcs(cfg)
	rep := &Report{ID: "abl-barriers", Title: "asynchronous traversal vs level-synchronous BFS (torus, p = " + fmt.Sprint(p) + ")"}
	rep.Table = stats.NewTable("algorithm", "time", "detail")
	ws, err := measure(cfg, g, kindWS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	lv, err := measure(cfg, g, kindLevelBFS, p, wsConfig{})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("NewAlg", stats.FormatDuration(ws.time), ws.extra+" barriers=2")
	rep.Table.AddRow("LevelBFS", stats.FormatDuration(lv.time), lv.extra)
	if cfg.Mode == Modeled {
		rep.Checks = append(rep.Checks, Check{
			Name:   "constant-barrier traversal beats per-level barriers on a mesh",
			Pass:   ws.time < lv.time,
			Detail: fmt.Sprintf("NewAlg %v vs LevelBFS %v", stats.FormatDuration(ws.time), stats.FormatDuration(lv.time)),
		})
	}
	return rep, nil
}

func runAblMachine(cfg Config) (*Report, error) {
	n := cfg.Scale
	g := gen.Random(n, 3*n/2, cfg.Seed)
	p := cfg.Fig3Procs
	rep := &Report{ID: "abl-machine", Title: "machine-profile sensitivity of the modeled speedup"}
	rep.Table = stats.NewTable("profile", "seq", "newalg", "speedup")
	pass := true
	for _, mach := range []smpmodel.Machine{smpmodel.E4500(), smpmodel.Modern()} {
		c := cfg
		c.Machine = mach
		c.Mode = Modeled
		seq, err := measure(c, g, kindSeqBFS, 1, wsConfig{})
		if err != nil {
			return nil, err
		}
		ws, err := measure(c, g, kindWS, p, wsConfig{})
		if err != nil {
			return nil, err
		}
		sp := stats.Speedup(seq.time, ws.time)
		rep.Table.AddRow(mach.Name, stats.FormatDuration(seq.time), stats.FormatDuration(ws.time), fmt.Sprintf("%.2f", sp))
		if sp <= 1 {
			pass = false
		}
	}
	rep.Checks = append(rep.Checks, Check{
		Name:   "the new algorithm wins under both machine profiles",
		Pass:   pass,
		Detail: "shape conclusion survives the profile swap",
	})
	return rep, nil
}

func maxProcs(cfg Config) int {
	p := cfg.Procs[0]
	for _, q := range cfg.Procs {
		if q > p {
			p = q
		}
	}
	return p
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
