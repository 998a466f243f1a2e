package spantree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"spantree/internal/smpmodel"
	"spantree/internal/spansv"
)

// familyRunner runs one member of the graft-and-shortcut family at
// p = 1 with model m (nil runs un-modeled) and returns its forest and
// Stats.
type familyRunner func(g *Graph, m *smpmodel.Model) ([]VID, any, error)

func familyRunners() map[string]familyRunner {
	find := func(alg Algorithm, stats func(*Result) any) familyRunner {
		return func(g *Graph, m *smpmodel.Model) ([]VID, any, error) {
			res, err := Find(g, Options{Algorithm: alg, NumProcs: 1, Model: m})
			if err != nil {
				return nil, nil, err
			}
			return res.Parent, stats(res), nil
		}
	}
	return map[string]familyRunner{
		"sv":      find(AlgSV, func(r *Result) any { return *r.SV }),
		"svlocks": find(AlgSVLocks, func(r *Result) any { return *r.SV }),
		"hcs":     find(AlgHCS, func(r *Result) any { return *r.HCS }),
		"as":      find(AlgAwerbuchShiloach, func(r *Result) any { return *r.AS }),
		"randmate": func(g *Graph, m *smpmodel.Model) ([]VID, any, error) {
			return spansv.RandomMating(g, spansv.Options{NumProcs: 1, Model: m}, 42)
		},
	}
}

// familyOutcome is what TestFamilyGolden pins for one p = 1 run: the
// first 8 bytes of the SHA-256 of the parent array (4 little-endian
// bytes per entry), the Stats, and for the same run under a cost model
// the processor's modeled counters and the barrier count.
func familyOutcome(t *testing.T, g *Graph, run familyRunner) string {
	t.Helper()
	parent, stats, err := run(g, nil)
	if err != nil {
		t.Fatalf("%v: %v", g, err)
	}
	m := smpmodel.New(1)
	modeled, modeledStats, err := run(g, m)
	if err != nil {
		t.Fatalf("%v modeled: %v", g, err)
	}
	if !slices.Equal(parent, modeled) || fmt.Sprint(stats) != fmt.Sprint(modeledStats) {
		t.Fatalf("%v: the cost model changed the run", g)
	}
	forest := make([]byte, 0, 4*len(parent))
	for _, p := range parent {
		forest = binary.LittleEndian.AppendUint32(forest, uint32(p))
	}
	sum := sha256.Sum256(forest)
	return fmt.Sprintf("%s %+v %+v B=%d", hex.EncodeToString(sum[:8]), stats, m.Proc(0), m.Barriers())
}

// TestFamilyGolden pins every graft-and-shortcut algorithm at p = 1,
// where a run is deterministic: forests, Stats and modeled charges on
// every test graph. The values were recorded while each algorithm
// still lived in a package of its own.
func TestFamilyGolden(t *testing.T) {
	got := map[string]string{}
	for i, g := range testGraphs(t) {
		for name, run := range familyRunners() {
			key := fmt.Sprintf("%s/%d", name, i)
			got[key] = familyOutcome(t, g, run)
			if want, ok := familyGoldens[key]; !ok {
				t.Errorf("no golden outcome for %q: %q", key, got[key])
			} else if got[key] != want {
				t.Errorf("%s (%v): got %q, want %q", key, g, got[key], want)
			}
		}
	}
	if len(familyGoldens) != len(got) {
		t.Errorf("%d golden outcomes for %d runs", len(familyGoldens), len(got))
	}
}

var familyGoldens = map[string]string{
	"as/0":        "cdbf305ad28ca700 {Iterations:2 ConditionalHooks:63 UnconditionalHooks:0} {NonContig:3699 Contig:768 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/1":        "ad95131bc0b799c0 {Iterations:1 ConditionalHooks:0 UnconditionalHooks:0} {NonContig:43 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=15",
	"as/2":        "cd3c2041ddae7170 {Iterations:2 ConditionalHooks:64 UnconditionalHooks:0} {NonContig:3608 Contig:672 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/3":        "5725dc4ed9413676 {Iterations:3 ConditionalHooks:132 UnconditionalHooks:5} {NonContig:10632 Contig:1319 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=43",
	"as/4":        "a25e806e12979ee0 {Iterations:3 ConditionalHooks:107 UnconditionalHooks:6} {NonContig:9003 Contig:1034 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=43",
	"as/5":        "cf523999748ef067 {Iterations:4 ConditionalHooks:173 UnconditionalHooks:15} {NonContig:20412 Contig:3023 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=57",
	"as/6":        "c323c96b39b5155a {Iterations:1 ConditionalHooks:0 UnconditionalHooks:0} {NonContig:1726 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=15",
	"as/7":        "52455930e7100533 {Iterations:4 ConditionalHooks:240 UnconditionalHooks:16} {NonContig:26563 Contig:4024 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=57",
	"as/8":        "8608f92edc6374ee {Iterations:5 ConditionalHooks:148 UnconditionalHooks:1} {NonContig:21869 Contig:4348 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=71",
	"as/9":        "15b71ee38a1a3da1 {Iterations:5 ConditionalHooks:113 UnconditionalHooks:6} {NonContig:16160 Contig:2717 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=71",
	"as/10":       "221f468787fb93eb {Iterations:4 ConditionalHooks:292 UnconditionalHooks:5} {NonContig:40544 Contig:10182 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=57",
	"as/11":       "d06fdd55f8b10ccf {Iterations:2 ConditionalHooks:299 UnconditionalHooks:0} {NonContig:15045 Contig:1980 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/12":       "5edbb410166d6aa0 {Iterations:2 ConditionalHooks:99 UnconditionalHooks:0} {NonContig:4937 Contig:594 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/13":       "ad95131bc0b799c0 {Iterations:1 ConditionalHooks:0 UnconditionalHooks:0} {NonContig:43 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=15",
	"as/14":       "e3b0c44298fc1c14 {Iterations:1 ConditionalHooks:0 UnconditionalHooks:0} {NonContig:0 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=15",
	"as/15":       "72a4fa3544e43a83 {Iterations:2 ConditionalHooks:1 UnconditionalHooks:0} {NonContig:135 Contig:6 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/16":       "dfe654f482254e47 {Iterations:2 ConditionalHooks:63 UnconditionalHooks:0} {NonContig:3297 Contig:378 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/17":       "b4642578d5d3edd2 {Iterations:2 ConditionalHooks:49 UnconditionalHooks:0} {NonContig:2497 Contig:300 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/18":       "60af04be00978a6b {Iterations:2 ConditionalHooks:19 UnconditionalHooks:0} {NonContig:2421 Contig:1140 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/19":       "86d41063a42852ba {Iterations:2 ConditionalHooks:62 UnconditionalHooks:0} {NonContig:3126 Contig:372 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/20":       "802c0fbbf052e861 {Iterations:2 ConditionalHooks:40 UnconditionalHooks:0} {NonContig:2048 Contig:240 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=29",
	"as/21":       "a362a30a39b45621 {Iterations:3 ConditionalHooks:35 UnconditionalHooks:2} {NonContig:3212 Contig:445 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=43",
	"as/22":       "4cd90aef345fc49a {Iterations:4 ConditionalHooks:61 UnconditionalHooks:2} {NonContig:7201 Contig:1288 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=57",
	"as/23":       "bb3937364d6cf41b {Iterations:6 ConditionalHooks:95 UnconditionalHooks:4} {NonContig:13487 Contig:1217 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=85",
	"hcs/0":       "cdbf305ad28ca700 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:1735 Contig:512 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/1":       "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"hcs/2":       "cd3c2041ddae7170 {Iterations:2 ShortcutRounds:1 Grafts:64} {NonContig:1618 Contig:448 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/3":       "a5487ef6e3a2b9ae {Iterations:3 ShortcutRounds:3 Grafts:137} {NonContig:4403 Contig:984 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"hcs/4":       "68249d96a8bf439a {Iterations:3 ShortcutRounds:3 Grafts:113} {NonContig:3622 Contig:768 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"hcs/5":       "3cbc37f896b4dca5 {Iterations:4 ShortcutRounds:5 Grafts:188} {NonContig:9397 Contig:2400 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"hcs/6":       "c323c96b39b5155a {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:206 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"hcs/7":       "2004f6491bf65d54 {Iterations:4 ShortcutRounds:5 Grafts:256} {NonContig:12414 Contig:3200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"hcs/8":       "e3ffeb1df235154c {Iterations:5 ShortcutRounds:7 Grafts:149} {NonContig:11636 Contig:3620 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"hcs/9":       "701792c76efc57a2 {Iterations:5 ShortcutRounds:7 Grafts:119} {NonContig:8038 Contig:2260 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"hcs/10":      "801b55e5647708c9 {Iterations:4 ShortcutRounds:5 Grafts:297} {NonContig:23228 Contig:8128 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"hcs/11":      "d06fdd55f8b10ccf {Iterations:2 ShortcutRounds:1 Grafts:299} {NonContig:5959 Contig:1320 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/12":      "5edbb410166d6aa0 {Iterations:2 ShortcutRounds:1 Grafts:99} {NonContig:1899 Contig:396 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/13":      "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"hcs/14":      "e3b0c44298fc1c14 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:0 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"hcs/15":      "72a4fa3544e43a83 {Iterations:2 ShortcutRounds:1 Grafts:1} {NonContig:37 Contig:4 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/16":      "dfe654f482254e47 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:1215 Contig:252 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/17":      "b4642578d5d3edd2 {Iterations:2 ShortcutRounds:1 Grafts:49} {NonContig:957 Contig:200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/18":      "60af04be00978a6b {Iterations:2 ShortcutRounds:1 Grafts:19} {NonContig:1747 Contig:760 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/19":      "86d41063a42852ba {Iterations:2 ShortcutRounds:1 Grafts:62} {NonContig:1196 Contig:248 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/20":      "802c0fbbf052e861 {Iterations:2 ShortcutRounds:1 Grafts:40} {NonContig:778 Contig:160 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"hcs/21":      "5e241ba7be272baa {Iterations:3 ShortcutRounds:3 Grafts:37} {NonContig:1312 Contig:300 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"hcs/22":      "922201c6f9a5f6f8 {Iterations:4 ShortcutRounds:5 Grafts:63} {NonContig:3549 Contig:1024 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"hcs/23":      "bb3937364d6cf41b {Iterations:6 ShortcutRounds:9 Grafts:99} {NonContig:5924 Contig:1188 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=37",
	"randmate/0":  "4d11311b76658d22 {Rounds:8 Hooks:63} {NonContig:6372 Contig:1368 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=63",
	"randmate/1":  "ad95131bc0b799c0 {Rounds:1 Hooks:0} {NonContig:18 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"randmate/2":  "40d3e192f173d166 {Rounds:7 Hooks:64} {NonContig:5042 Contig:902 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=55",
	"randmate/3":  "c2321f69de9874f5 {Rounds:11 Hooks:137} {NonContig:14389 Contig:1638 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=87",
	"randmate/4":  "369dd18396fa81a0 {Rounds:15 Hooks:113} {NonContig:17378 Contig:2214 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=119",
	"randmate/5":  "d3d9c635cda36120 {Rounds:11 Hooks:188} {NonContig:19616 Contig:2461 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=83",
	"randmate/6":  "c323c96b39b5155a {Rounds:1 Hooks:0} {NonContig:612 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"randmate/7":  "0c7bf838a4d59a1c {Rounds:11 Hooks:256} {NonContig:25769 Contig:3137 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=85",
	"randmate/8":  "c2bcb1022cf0d60e {Rounds:10 Hooks:149} {NonContig:16593 Contig:3233 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=79",
	"randmate/9":  "ab295972af31839a {Rounds:14 Hooks:119} {NonContig:18702 Contig:3700 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=111",
	"randmate/10": "95e43dc42628cb5b {Rounds:10 Hooks:297} {NonContig:41009 Contig:10672 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=77",
	"randmate/11": "829a40ae74da39a3 {Rounds:14 Hooks:299} {NonContig:34104 Contig:3012 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=107",
	"randmate/12": "5edbb410166d6aa0 {Rounds:10 Hooks:99} {NonContig:9022 Contig:920 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=79",
	"randmate/13": "ad95131bc0b799c0 {Rounds:1 Hooks:0} {NonContig:18 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"randmate/14": "e3b0c44298fc1c14 {Rounds:1 Hooks:0} {NonContig:0 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"randmate/15": "72a4fa3544e43a83 {Rounds:2 Hooks:1} {NonContig:53 Contig:3 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=15",
	"randmate/16": "dfe654f482254e47 {Rounds:10 Hooks:63} {NonContig:5449 Contig:783 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=73",
	"randmate/17": "9b0e45dea2574df3 {Rounds:9 Hooks:49} {NonContig:4070 Contig:394 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=71",
	"randmate/18": "f7540432ecff393d {Rounds:6 Hooks:19} {NonContig:2893 Contig:1273 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=45",
	"randmate/19": "86d41063a42852ba {Rounds:11 Hooks:62} {NonContig:6547 Contig:768 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=87",
	"randmate/20": "802c0fbbf052e861 {Rounds:11 Hooks:40} {NonContig:3988 Contig:413 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=85",
	"randmate/21": "564626473d924723 {Rounds:8 Hooks:37} {NonContig:3243 Contig:419 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=63",
	"randmate/22": "123e2022b7fc9141 {Rounds:7 Hooks:63} {NonContig:4873 Contig:932 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=53",
	"randmate/23": "bb3937364d6cf41b {Rounds:12 Hooks:99} {NonContig:10785 Contig:1236 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=93",
	"sv/0":        "cdbf305ad28ca700 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:1800 Contig:512 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/1":        "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"sv/2":        "cd3c2041ddae7170 {Iterations:2 ShortcutRounds:1 Grafts:64} {NonContig:1666 Contig:448 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/3":        "5725dc4ed9413676 {Iterations:3 ShortcutRounds:3 Grafts:137} {NonContig:4473 Contig:984 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"sv/4":        "a25e806e12979ee0 {Iterations:3 ShortcutRounds:3 Grafts:113} {NonContig:3665 Contig:768 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"sv/5":        "1d827bbaafd5f5cf {Iterations:4 ShortcutRounds:5 Grafts:188} {NonContig:9652 Contig:2400 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"sv/6":        "c323c96b39b5155a {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:206 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"sv/7":        "d4b989b0a66f8f27 {Iterations:4 ShortcutRounds:5 Grafts:256} {NonContig:12804 Contig:3200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"sv/8":        "49f0b976df7b536a {Iterations:5 ShortcutRounds:7 Grafts:149} {NonContig:12047 Contig:3620 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"sv/9":        "917cade9e45ee080 {Iterations:5 ShortcutRounds:7 Grafts:119} {NonContig:8240 Contig:2260 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"sv/10":       "221f468787fb93eb {Iterations:4 ShortcutRounds:5 Grafts:297} {NonContig:24620 Contig:8128 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"sv/11":       "d06fdd55f8b10ccf {Iterations:2 ShortcutRounds:1 Grafts:299} {NonContig:5990 Contig:1320 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/12":       "5edbb410166d6aa0 {Iterations:2 ShortcutRounds:1 Grafts:99} {NonContig:1899 Contig:396 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/13":       "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"sv/14":       "e3b0c44298fc1c14 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:0 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"sv/15":       "72a4fa3544e43a83 {Iterations:2 ShortcutRounds:1 Grafts:1} {NonContig:37 Contig:4 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/16":       "dfe654f482254e47 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:1215 Contig:252 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/17":       "b4642578d5d3edd2 {Iterations:2 ShortcutRounds:1 Grafts:49} {NonContig:958 Contig:200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/18":       "60af04be00978a6b {Iterations:2 ShortcutRounds:1 Grafts:19} {NonContig:1918 Contig:760 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/19":       "86d41063a42852ba {Iterations:2 ShortcutRounds:1 Grafts:62} {NonContig:1196 Contig:248 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/20":       "802c0fbbf052e861 {Iterations:2 ShortcutRounds:1 Grafts:40} {NonContig:778 Contig:160 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"sv/21":       "8d87b194535fc9dc {Iterations:3 ShortcutRounds:3 Grafts:37} {NonContig:1337 Contig:300 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"sv/22":       "4cd90aef345fc49a {Iterations:4 ShortcutRounds:5 Grafts:63} {NonContig:3701 Contig:1024 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"sv/23":       "bb3937364d6cf41b {Iterations:6 ShortcutRounds:9 Grafts:99} {NonContig:5958 Contig:1188 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=37",
	"svlocks/0":   "cdbf305ad28ca700 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:2056 Contig:512 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/1":   "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"svlocks/2":   "cd3c2041ddae7170 {Iterations:2 ShortcutRounds:1 Grafts:64} {NonContig:1890 Contig:448 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/3":   "5725dc4ed9413676 {Iterations:3 ShortcutRounds:3 Grafts:137} {NonContig:4891 Contig:984 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"svlocks/4":   "a25e806e12979ee0 {Iterations:3 ShortcutRounds:3 Grafts:113} {NonContig:3979 Contig:768 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"svlocks/5":   "1d827bbaafd5f5cf {Iterations:4 ShortcutRounds:5 Grafts:188} {NonContig:10596 Contig:2400 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"svlocks/6":   "c323c96b39b5155a {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:206 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"svlocks/7":   "d4b989b0a66f8f27 {Iterations:4 ShortcutRounds:5 Grafts:256} {NonContig:14200 Contig:3200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"svlocks/8":   "49f0b976df7b536a {Iterations:5 ShortcutRounds:7 Grafts:149} {NonContig:13197 Contig:3620 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"svlocks/9":   "917cade9e45ee080 {Iterations:5 ShortcutRounds:7 Grafts:119} {NonContig:8896 Contig:2260 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=30",
	"svlocks/10":  "221f468787fb93eb {Iterations:4 ShortcutRounds:5 Grafts:297} {NonContig:28060 Contig:8128 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"svlocks/11":  "d06fdd55f8b10ccf {Iterations:2 ShortcutRounds:1 Grafts:299} {NonContig:6650 Contig:1320 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/12":  "5edbb410166d6aa0 {Iterations:2 ShortcutRounds:1 Grafts:99} {NonContig:2097 Contig:396 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/13":  "ad95131bc0b799c0 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:8 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"svlocks/14":  "e3b0c44298fc1c14 {Iterations:1 ShortcutRounds:0 Grafts:0} {NonContig:0 Contig:0 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=4",
	"svlocks/15":  "72a4fa3544e43a83 {Iterations:2 ShortcutRounds:1 Grafts:1} {NonContig:39 Contig:4 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/16":  "dfe654f482254e47 {Iterations:2 ShortcutRounds:1 Grafts:63} {NonContig:1341 Contig:252 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/17":  "b4642578d5d3edd2 {Iterations:2 ShortcutRounds:1 Grafts:49} {NonContig:1058 Contig:200 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/18":  "60af04be00978a6b {Iterations:2 ShortcutRounds:1 Grafts:19} {NonContig:2298 Contig:760 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/19":  "86d41063a42852ba {Iterations:2 ShortcutRounds:1 Grafts:62} {NonContig:1320 Contig:248 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/20":  "802c0fbbf052e861 {Iterations:2 ShortcutRounds:1 Grafts:40} {NonContig:858 Contig:160 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=9",
	"svlocks/21":  "8d87b194535fc9dc {Iterations:3 ShortcutRounds:3 Grafts:37} {NonContig:1467 Contig:300 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=16",
	"svlocks/22":  "4cd90aef345fc49a {Iterations:4 ShortcutRounds:5 Grafts:63} {NonContig:4143 Contig:1024 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=23",
	"svlocks/23":  "bb3937364d6cf41b {Iterations:6 ShortcutRounds:9 Grafts:99} {NonContig:6242 Contig:1188 Ops:0 NonContigCompact:0 ContigCompact:0 BottomUpScans:0 CASOps:0 PointerChases:0} B=37",
}
