package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"spantree"
	"spantree/internal/gen"
)

// The degradation ladder. A graph whose runs keep stalling or blowing
// their deadlines is not served harder — it is served simpler: each
// rung strips one source of coordination from the per-request execution
// until the runs complete again, and a cooled-down stretch of healthy
// completions climbs back up.
//
//	rung 0: the configured execution (resolved shards, full p)
//	rung 1: unsharded (no partition, no stitch, one team)
//	rung 2: unsharded at half the workers
//	rung 3: sequential (p = 1 — no steals, no barriers)
//
// Rungs are per graph, not per server: one pathological graph degrades
// alone while the rest of the registry keeps its full execution.
const (
	numRungs = 4
	maxRung  = numRungs - 1
)

// degradeAfter is how many consecutive stall/deadline failures on one
// graph step its execution down a rung.
const degradeAfter = 3

// entry is one registered graph: its spec, its resolved execution, and
// its position on the degradation ladder. Pools for degraded rungs are
// built lazily on first use and kept until eviction, so flapping
// between rungs never rebuilds worker teams.
type entry struct {
	name     string
	spec     gen.Spec
	g        *spantree.Graph
	shards   int                     // the resolved per-graph shard count
	base     spantree.SessionOptions // rung-0 session options
	poolSize int

	rung     atomic.Int32
	fails    atomic.Int32 // consecutive stall/deadline failures
	lastStep atomic.Int64 // unix nanos of the last rung change

	pmu   sync.Mutex
	pools [numRungs]*spantree.SessionPool // pools[0] is built at registration
}

// optionsFor derives the session options for one rung from the rung-0
// base.
func (e *entry) optionsFor(r int32) spantree.SessionOptions {
	o := e.base
	switch {
	case r >= 3:
		o.Shards = 1
		o.NumProcs = 1
	case r == 2:
		o.Shards = 1
		if o.NumProcs > 1 {
			o.NumProcs /= 2
		}
	case r == 1:
		o.Shards = 1
	}
	return o
}

// poolFor returns the session pool serving e at its current rung,
// building it on first use. A build failure at a degraded rung falls
// back to the rung-0 pool rather than failing the request.
func (e *entry) poolFor() *spantree.SessionPool {
	r := e.rung.Load()
	if r == 0 {
		return e.pools[0]
	}
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if e.pools[r] == nil {
		p, err := spantree.NewSessionPool(e.g, e.optionsFor(r), e.poolSize)
		if err != nil {
			return e.pools[0]
		}
		e.pools[r] = p
	}
	return e.pools[r]
}

// closePools retires every rung's pool (eviction and shutdown).
func (e *entry) closePools() {
	e.pmu.Lock()
	pools := e.pools
	e.pools = [numRungs]*spantree.SessionPool{}
	e.pmu.Unlock()
	for _, p := range pools {
		if p != nil {
			p.Close()
		}
	}
}

// noteFailure feeds one failed run into the ladder: stalls and deadline
// blowouts are the degradation signals, and degradeAfter consecutive
// ones step the graph down a rung. Other failures (client gone, graph
// evicted) say nothing about the execution and reset nothing.
func (s *Server) noteFailure(e *entry, stallOrDeadline bool) {
	if !stallOrDeadline {
		return
	}
	if e.fails.Add(1) < degradeAfter {
		return
	}
	e.fails.Store(0)
	r := e.rung.Load()
	if r >= maxRung {
		return
	}
	if e.rung.CompareAndSwap(r, r+1) {
		e.lastStep.Store(time.Now().UnixNano())
		s.degradeSteps.Add(1)
	}
}

// noteSuccess feeds one healthy completion into the ladder: the failure
// streak resets, and once the graph has been degraded for a full
// cool-down it climbs back up one rung.
func (s *Server) noteSuccess(e *entry) {
	e.fails.Store(0)
	r := e.rung.Load()
	if r == 0 {
		return
	}
	if time.Since(time.Unix(0, e.lastStep.Load())) < s.cfg.CoolDown {
		return
	}
	if e.rung.CompareAndSwap(r, r-1) {
		e.lastStep.Store(time.Now().UnixNano())
	}
}

// maxRungHeld returns the highest rung any registered graph currently
// sits on (the readiness probe's degradation signal).
func (s *Server) maxRungHeld() int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var r int32
	for _, e := range s.graphs {
		if er := e.rung.Load(); er > r {
			r = er
		}
	}
	return r
}
