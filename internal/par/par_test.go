package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

func TestBlockRangeCoversExactly(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := int(pRaw%64) + 1
		covered := make([]int, n)
		prevHi := 0
		for tid := 0; tid < p; tid++ {
			lo, hi := BlockRange(n, p, tid)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo > n/p+1 || (n >= p && hi-lo < n/p) {
				return false // blocks must be balanced
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			prevHi = hi
		}
		if prevHi != n {
			return false
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTeamRunAllProcessors(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		team := NewTeam(p, nil)
		if team.NumProcs() != p {
			t.Fatalf("NumProcs = %d", team.NumProcs())
		}
		seen := make([]int32, p)
		team.Run(func(c *Ctx) {
			atomic.AddInt32(&seen[c.TID()], 1)
			if c.NumProcs() != p {
				t.Errorf("ctx NumProcs = %d, want %d", c.NumProcs(), p)
			}
		})
		for tid, s := range seen {
			if s != 1 {
				t.Fatalf("p=%d: tid %d ran %d times", p, tid, s)
			}
		}
	}
}

func TestTeamRunPropagatesPanic(t *testing.T) {
	team := NewTeam(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	team.Run(func(c *Ctx) {
		if c.TID() == 1 {
			panic("boom")
		}
		// NOTE: survivors must not wait on a barrier here — a panicking
		// participant never arrives and the team would deadlock, which
		// is the documented contract of barrier-synchronized code.
	})
}

// withChunk sets the team's ForDynamic drain chunk, so the tests can
// drive chunk sizes other than DefaultChunkSize; size <= 0 keeps the
// default. Call before Run.
func (t *Team) withChunk(size int) *Team {
	if size > 0 {
		t.dyn.chunk = size
	}
	return t
}

// TestMinStealLenScaling pins the p-scaled steal threshold: max(2, p/2).
// These exact values are load-bearing — lowering them reintroduces the
// bursty re-idling on small graphs at high p, raising them starves
// thieves on two-processor runs.
func TestMinStealLenScaling(t *testing.T) {
	want := map[int]int{1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 8: 4, 16: 8, 32: 16}
	for p, w := range want {
		if got := MinStealLen(p); got != w {
			t.Errorf("MinStealLen(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestForDynamicPartitions(t *testing.T) {
	const n = 1000
	for _, size := range []int{0, 1, 4, 7, 64, 5000} {
		for _, p := range []int{1, 3, 4, 8} {
			team := NewTeam(p, nil).withChunk(size)
			hits := make([]int32, n)
			team.Run(func(c *Ctx) {
				c.ForDynamic(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("chunk %d p=%d: index %d visited %d times",
						size, p, i, h)
				}
			}
		}
	}
}

// TestForDynamicBackToBack covers the barrier-free contract: two
// consecutive ForDynamic calls with no Barrier between them must still
// visit every index of both loops exactly once, with cross-call steals
// rejected by the slot tags.
func TestForDynamicBackToBack(t *testing.T) {
	const n = 2000
	for rep := 0; rep < 20; rep++ {
		team := NewTeam(8, nil)
		a := make([]int32, n)
		b := make([]int32, n)
		team.Run(func(c *Ctx) {
			c.ForDynamic(n, func(i int) { atomic.AddInt32(&a[i], 1) })
			c.ForDynamic(n, func(i int) { atomic.AddInt32(&b[i], 1) })
		})
		for i := 0; i < n; i++ {
			if a[i] != 1 || b[i] != 1 {
				t.Fatalf("rep %d: index %d visited a=%d b=%d times", rep, i, a[i], b[i])
			}
		}
	}
}

// TestForDynamicStealsFromSkew pins the point of the port: with all the
// work piled on one worker's static block (everyone else's body is a
// no-op region), the other workers must actually steal some of it.
func TestForDynamicStealsFromSkew(t *testing.T) {
	const n = 1 << 14
	team := NewTeam(4, nil)
	var who [n]int32
	lo, hi := BlockRange(n, 4, 0)
	// ForDynamic has no entry barrier, so left to the scheduler the test
	// would race: an unloaded worker that drains its block before worker
	// 0 has published its slot finds nothing to steal and returns, and
	// worker 0 can run its whole block before any thief looks. Both
	// orders are pinned here instead. The unloaded workers cannot finish
	// before worker 0 has started (and so published its slot), and worker
	// 0 then holds its block until a thief has taken part of it. The hold
	// is bounded, so a broken steal path fails below instead of hanging.
	var started, raided atomic.Bool
	deadline := time.Now().Add(10 * time.Second)
	team.Run(func(c *Ctx) {
		c.ForDynamic(n, func(i int) {
			switch {
			case i < lo || i >= hi:
				for !started.Load() {
					runtime.Gosched()
				}
			case c.TID() == 0:
				started.Store(true)
				for !raided.Load() && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			default:
				raided.Store(true)
			}
			atomic.StoreInt32(&who[i], int32(c.TID())+1)
		})
	})
	stolen := 0
	for i := lo; i < hi; i++ {
		if who[i] == 0 {
			t.Fatalf("index %d never executed", i)
		}
		if who[i] != 1 {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no work migrated off the loaded worker")
	}
}

// TestForDynamicModeledDeterministic pins the determinism contract:
// with a model attached the per-processor T_M charge is identical
// run-to-run (no stealing on the modeled path).
func TestForDynamicModeledDeterministic(t *testing.T) {
	const n, p = 5000, 4
	charge := func() [p]int64 {
		model := smpmodel.New(p)
		team := NewTeam(p, model)
		team.Run(func(c *Ctx) {
			c.ForDynamic(n, func(i int) { c.Probe().NonContig(1) })
		})
		var out [p]int64
		for tid := 0; tid < p; tid++ {
			out[tid] = model.Proc(tid).NonContig
		}
		return out
	}
	first := charge()
	for rep := 0; rep < 5; rep++ {
		if got := charge(); got != first {
			t.Fatalf("modeled charge varied: %v vs %v", got, first)
		}
	}
}

// TestForDynamicModeledStealFloor pins the modeled steal-traffic floor:
// every worker of a modeled ForDynamic charges one terminal victim scan
// (p-1 size probes plus a fruitless poll) and reports it as one failed
// steal attempt, while a p=1 team charges none.
func TestForDynamicModeledStealFloor(t *testing.T) {
	const n = 1000
	run := func(p int) (attempts, failures, successes int64, nc [8]int64) {
		model := smpmodel.New(p)
		rec := obs.New(p)
		team := NewTeam(p, model).Observe(rec)
		team.Run(func(c *Ctx) {
			c.ForDynamic(n, func(i int) {})
		})
		for tid := 0; tid < p; tid++ {
			nc[tid] = model.Proc(tid).NonContig
		}
		return rec.Total(obs.StealAttempts), rec.Total(obs.StealFailures),
			rec.Total(obs.StealSuccesses), nc
	}
	att, fail, succ, _ := run(4)
	if att != 4 || fail != 4 || succ != 0 {
		t.Fatalf("p=4: attempts=%d failures=%d successes=%d, want 4/4/0", att, fail, succ)
	}
	att, fail, _, _ = run(1)
	if att != 0 || fail != 0 {
		t.Fatalf("p=1: attempts=%d failures=%d, want 0/0", att, fail)
	}
	// The scan charge itself: run the same block shape with and without a
	// body charge; the fixed floor is p-1 probes + 1 poll on every worker.
	_, _, _, nc := run(4)
	for tid := 0; tid < 4; tid++ {
		perDrain := nc[tid] // drains + scan; the scan part must be >= p
		if perDrain < int64(4-1+1) {
			t.Fatalf("worker %d: NonContig=%d, below the scan floor", tid, perDrain)
		}
	}
}

func TestReductions(t *testing.T) {
	team := NewTeam(6, nil)
	team.Run(func(c *Ctx) {
		max := c.ReduceMax(int64(c.TID()))
		if max != 5 {
			t.Errorf("ReduceMax = %d, want 5", max)
		}
		or := c.ReduceOr(c.TID() == 3)
		if !or {
			t.Error("ReduceOr missed the true vote")
		}
		or = c.ReduceOr(false)
		if or {
			t.Error("ReduceOr fabricated a true vote")
		}
		// Back-to-back reductions must not interfere.
		a := c.ReduceMax(int64(c.TID()))
		b := c.ReduceMax(int64(10 - c.TID()))
		if a != 5 || b != 10 {
			t.Errorf("sequential reductions %d, %d", a, b)
		}
	})
}

func TestBarrierChargesModel(t *testing.T) {
	model := smpmodel.New(4)
	team := NewTeam(4, model)
	team.Run(func(c *Ctx) {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
	})
	if model.Barriers() != 5 {
		t.Fatalf("model recorded %d barriers, want 5", model.Barriers())
	}
}

func TestProbeAccess(t *testing.T) {
	model := smpmodel.New(2)
	team := NewTeam(2, model)
	team.Run(func(c *Ctx) {
		c.Probe().NonContig(int64(c.TID() + 1))
	})
	if model.Proc(0).NonContig != 1 || model.Proc(1).NonContig != 2 {
		t.Fatal("probes charged the wrong processors")
	}
	// Nil-model teams yield nil probes that are safe to use.
	team = NewTeam(2, nil)
	team.Run(func(c *Ctx) {
		c.Probe().NonContig(5)
		c.Probe().Contig(5)
		c.Probe().Ops(5)
	})
}

func TestNewTeamPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) accepted")
		}
	}()
	NewTeam(0, nil)
}
