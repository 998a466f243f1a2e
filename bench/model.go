package main

import (
	"fmt"

	"spantree/internal/core"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
)

// modelProcs is the processor count of the modeled run: the paper's
// E4500 had eight, and the two-CPU benchmark host cannot show p-scaling
// any other way.
const modelProcs = 8

// modelP8 charges the deterministic lockstep twin of the traversal at
// p = 8 and the sequential BFS at p = 1 to the Helman–JáJá model and
// records their E4500-priced ratio plus the counts behind it. opt
// carries the run's seed and the layout and shard count being modeled.
func modelP8(g *graph.Graph, opt core.Options, rep *report, l *lane) error {
	sp := l.begin("smpmodel.lockstep", -1, -1)
	par := smpmodel.New(modelProcs)
	opt.NumProcs, opt.Model = modelProcs, par
	_, st, err := core.LockstepForest(g, opt)
	l.end(sp)
	if err != nil {
		return fmt.Errorf("modeled lockstep run: %w", err)
	}
	sp = l.begin("smpmodel.seq_bfs", -1, -1)
	seq := smpmodel.New(1)
	spanseq.BFS(g, seq.Probe(0))
	l.end(sp)

	mach := smpmodel.E4500()
	rep.set("model_speedup_p8", ratio(float64(seq.Time(mach)), float64(par.Time(mach))))
	pm, sm := par.MaxPerProc(), seq.MaxPerProc()
	rep.set("smpmodel.t_m", float64(tM(pm)))
	rep.set("smpmodel.t_c", float64(tC(pm)))
	rep.set("smpmodel.barriers", float64(par.Barriers()))
	rep.set("smpmodel.lockstep_rounds", float64(st.LockstepRounds))
	rep.set("smpmodel.seq_t_m", float64(tM(sm)))
	rep.set("smpmodel.seq_t_c", float64(tC(sm)))
	return nil
}

// tM and tC fold the charge classes into the paper's triplet the way
// smpmodel.Model.Triplet does.
func tM(c smpmodel.Counters) int64 {
	return c.NonContig + c.NonContigCompact + c.CASOps + c.PointerChases
}

func tC(c smpmodel.Counters) int64 {
	return c.Ops + c.Contig + c.ContigCompact + c.BottomUpScans
}
