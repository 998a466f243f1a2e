package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/verify"
)

// TestObsTorusStealCounts is the integration contract of the
// observability layer: on a well-connected torus the work-stealing
// protocol must actually fire at p >= 4 (the load-balance mechanism the
// paper's argument rests on) and must be structurally silent at p = 1.
func TestObsTorusStealCounts(t *testing.T) {
	g := gen.Torus2D(64, 64)
	for name, run := range drivers() {
		for _, p := range []int{4, 8} {
			var snap obs.Snapshot
			var st Stats
			// The torus is well balanced, so whether a steal fires depends
			// on the stub placement. The deterministic lockstep driver
			// scans a few seeds and requires the protocol to engage at
			// one of them. The concurrent arm seeds only worker 0
			// (NoStub) and holds it after its first drain until a thief
			// has stolen, so its steal does not depend on the host
			// running the whole team at once.
			for seed := uint64(10); seed < 15; seed++ {
				rec := obs.New(p)
				o := Options{NumProcs: p, Seed: seed, Obs: rec}
				if name == "concurrent" {
					o.NoStub = true
					calls := 0 // touched only by worker 0
					o.testHook = func(tid int) {
						if tid != 0 {
							return
						}
						if calls++; calls == 2 { // the first call precedes the first drain
							if msg := waitFor("steal from worker 0", func() bool {
								return rec.Total(obs.StealSuccesses) > 0
							}); msg != "" {
								t.Error(msg)
							}
						}
					}
				}
				parent, stats, err := run(g, o)
				if err != nil {
					t.Fatalf("%s p=%d: %v", name, p, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s p=%d: %v", name, p, err)
				}
				snap, st = rec.Snapshot(), stats
				if snap.Totals.StealSuccesses > 0 {
					break
				}
			}
			if snap.Totals.StealSuccesses == 0 {
				t.Errorf("%s p=%d: no steals on a torus at any probed seed", name, p)
			}
			if snap.Totals.StealAttempts < snap.Totals.StealSuccesses {
				t.Errorf("%s p=%d: attempts %d < successes %d", name, p,
					snap.Totals.StealAttempts, snap.Totals.StealSuccesses)
			}
			if snap.Totals.QueueHighWater == 0 {
				t.Errorf("%s p=%d: queue high-water never rose", name, p)
			}
			if snap.BarrierEpisodes != 2 {
				t.Errorf("%s p=%d: barrier episodes = %d, want 2 (the paper's B)",
					name, p, snap.BarrierEpisodes)
			}
			// Stats is a derived view over the same recorder.
			if st.Steals != snap.Totals.StealSuccesses {
				t.Errorf("%s p=%d: Stats.Steals = %d, snapshot %d", name, p,
					st.Steals, snap.Totals.StealSuccesses)
			}
			if st.StolenVertices != snap.Totals.StolenVertices {
				t.Errorf("%s p=%d: Stats.StolenVertices = %d, snapshot %d", name, p,
					st.StolenVertices, snap.Totals.StolenVertices)
			}
			var claimed int64
			for tid, w := range snap.Workers {
				claimed += w.VerticesClaimed
				if w.VerticesClaimed != st.VerticesPerProc[tid] {
					t.Errorf("%s p=%d worker %d: claimed %d, Stats %d", name, p,
						tid, w.VerticesClaimed, st.VerticesPerProc[tid])
				}
			}
			if claimed == 0 || claimed > int64(g.NumVertices()) {
				t.Errorf("%s p=%d: total claimed %d out of range", name, p, claimed)
			}
		}

		// p = 1: no victims exist, so the steal counters must stay zero.
		rec := obs.New(1)
		_, _, err := run(g, Options{NumProcs: 1, Seed: 7, Obs: rec})
		if err != nil {
			t.Fatalf("%s p=1: %v", name, err)
		}
		snap := rec.Snapshot()
		if snap.Totals.StealSuccesses != 0 || snap.Totals.StealAttempts != 0 ||
			snap.Totals.StolenVertices != 0 {
			t.Errorf("%s p=1: steals reported (%d attempts, %d successes, %d vertices)",
				name, snap.Totals.StealAttempts, snap.Totals.StealSuccesses,
				snap.Totals.StolenVertices)
		}
		// Every vertex is queued exactly once (claims are unique), so the
		// processed count can never exceed n. It is bounded, not exact:
		// workers notice visited == n only at chunk boundaries, so a few
		// claimed vertices can stay queued but never processed, and
		// stub-walk vertices are claimed in the sequential prologue but
		// still scanned by the traversal once popped.
		hi := int64(g.NumVertices())
		if c := snap.Totals.VerticesClaimed; c < hi/2 || c > hi {
			t.Errorf("%s p=1: claimed %d vertices, want in (%d, %d]",
				name, c, hi/2, hi)
		}
	}
}

// TestObsTraceTimeline checks that a traced run produces the expected
// event kinds in a plausible order: seeds first, then steals.
func TestObsTraceTimeline(t *testing.T) {
	g := gen.Torus2D(64, 64)
	rec := obs.New(8, obs.WithTrace(1<<14))
	if _, _, err := LockstepForest(g, Options{NumProcs: 8, Seed: 7, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	kinds := map[string]int{}
	firstSeed, firstSteal := -1, -1
	for i, e := range events {
		kinds[e.Kind]++
		if e.Kind == "seed" && firstSeed < 0 {
			firstSeed = i
		}
		if e.Kind == "steal" && firstSteal < 0 {
			firstSteal = i
		}
		if i > 0 && e.TNS < events[i-1].TNS {
			t.Fatalf("events out of order at %d: %d after %d", i, e.TNS, events[i-1].TNS)
		}
	}
	if kinds["seed"] == 0 || kinds["steal"] == 0 || kinds["barrier"] != 2 {
		t.Fatalf("unexpected kinds: %v", kinds)
	}
	if firstSeed > firstSteal {
		t.Fatalf("first steal (%d) before first seed (%d)", firstSteal, firstSeed)
	}
}

// TestObsFallbackAndComponentEvents drives the two quiescence outcomes:
// seeding extra components (disconnected input) and the SV fallback
// (degenerate chain with a threshold).
func TestObsFallbackAndComponentEvents(t *testing.T) {
	// Disconnected input: every extra component is seeded and counted.
	disc := graph.Union(gen.Chain(40), gen.Star(25), gen.Cycle(30))
	rec := obs.New(4)
	_, st, err := LockstepForest(disc, Options{NumProcs: 4, Seed: 3, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Totals.SeededComponents == 0 {
		t.Error("no seeded components on a forest input")
	}
	if snap.Totals.SeededComponents != st.CursorRoots {
		t.Errorf("seeded %d, Stats.CursorRoots %d", snap.Totals.SeededComponents, st.CursorRoots)
	}

	// Degenerate chain with detection on: the fallback must trigger and
	// be visible in the counters.
	rec = obs.New(8)
	_, st, err = LockstepForest(gen.Chain(4000), Options{
		NumProcs: 8, Seed: 3, FallbackThreshold: 7, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FallbackTriggered {
		t.Skip("fallback did not trigger at this seed; counters untestable")
	}
	if got := rec.Snapshot().Totals.FallbackTriggers; got != 1 {
		t.Errorf("fallback_triggers = %d, want 1", got)
	}
}

// TestObsRejectsUndersizedRecorder pins the Options.Obs contract.
func TestObsRejectsUndersizedRecorder(t *testing.T) {
	g := gen.Chain(10)
	rec := obs.New(2)
	if _, _, err := SpanningForest(g, Options{NumProcs: 4, Obs: rec}); err == nil {
		t.Error("concurrent driver accepted an undersized recorder")
	}
	if _, _, err := LockstepForest(g, Options{NumProcs: 4, Obs: rec}); err == nil {
		t.Error("lockstep driver accepted an undersized recorder")
	}
}
