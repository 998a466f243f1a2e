package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// digest is the first 8 bytes of the SHA-256 of b, in hex.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// oneShotOutcome is what TestOneShotGolden pins for one p = 1 run: the
// digest of the parent array (4 little-endian bytes per entry), the
// stub, root and cursor-root counts, and, for the same run with a cost
// model and a caller's recorder attached, the modeled triplet and span
// and the digest of the recorder's JSON snapshot.
func oneShotOutcome(t *testing.T, g *graph.Graph, o Options) string {
	t.Helper()
	parent, st, err := SpanningForest(g, o)
	if err != nil {
		t.Fatalf("%v %+v: %v", g, o, err)
	}
	m, rec := smpmodel.New(1), obs.New(1)
	o.Model, o.Obs = m, rec
	observed, _, err := SpanningForest(g, o)
	if err != nil {
		t.Fatalf("%v %+v observed: %v", g, o, err)
	}
	forest := make([]byte, 0, 4*len(parent))
	for v, p := range parent {
		if observed[v] != p {
			t.Fatalf("%v %+v: observing moved parent[%d] from %d to %d", g, o, v, p, observed[v])
		}
		forest = binary.LittleEndian.AppendUint32(forest, uint32(p))
	}
	report, err := json.Marshal(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s stub=%d roots=%d cursor=%d %s span=%d obs=%s",
		digest(forest), st.StubSize, st.Roots, st.CursorRoots, m.Triplet(), m.SpanNC(), digest(report))
}

// TestOneShotGolden pins the one-shot SpanningForest at p = 1, where a
// run is deterministic: forests, counts and modeled charges on every
// shape and leafy shape, with NoStub and Deg2Eliminate each on and off.
// The values were recorded with the spawn-per-run driver that the
// one-run Workspace replaced.
func TestOneShotGolden(t *testing.T) {
	got := map[string]string{}
	for i, g := range append(shapes(), leafyShapes()...) {
		for _, noStub := range []bool{false, true} {
			for _, deg2 := range []bool{false, true} {
				key := fmt.Sprintf("%d/nostub=%t/deg2=%t", i, noStub, deg2)
				got[key] = oneShotOutcome(t, g, Options{NumProcs: 1, Seed: 77, NoStub: noStub, Deg2Eliminate: deg2})
				if want, ok := oneShotGoldens[key]; !ok {
					t.Errorf("no golden outcome for %q (got %q)", key, got[key])
				} else if got[key] != want {
					t.Errorf("%s (%v): got %q, want %q", key, g, got[key], want)
				}
			}
		}
	}
	if len(oneShotGoldens) != len(got) {
		t.Errorf("%d golden outcomes for %d runs", len(oneShotGoldens), len(got))
	}
}

var oneShotGoldens = map[string]string{
	"0/nostub=false/deg2=false":  "e3b0c44298fc1c14 stub=0 roots=0 cursor=0 ⟨T_M=0; T_C=0; B=0⟩ span=0 obs=78e3e467e7b3de5c",
	"0/nostub=false/deg2=true":   "e3b0c44298fc1c14 stub=0 roots=0 cursor=0 ⟨T_M=0; T_C=0; B=0⟩ span=0 obs=78e3e467e7b3de5c",
	"0/nostub=true/deg2=false":   "e3b0c44298fc1c14 stub=0 roots=0 cursor=0 ⟨T_M=0; T_C=0; B=0⟩ span=0 obs=78e3e467e7b3de5c",
	"0/nostub=true/deg2=true":    "e3b0c44298fc1c14 stub=0 roots=0 cursor=0 ⟨T_M=0; T_C=0; B=0⟩ span=0 obs=78e3e467e7b3de5c",
	"1/nostub=false/deg2=false":  "ad95131bc0b799c0 stub=1 roots=1 cursor=0 ⟨T_M=4; T_C=0; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"1/nostub=false/deg2=true":   "ad95131bc0b799c0 stub=1 roots=1 cursor=0 ⟨T_M=5; T_C=0; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"1/nostub=true/deg2=false":   "ad95131bc0b799c0 stub=1 roots=1 cursor=0 ⟨T_M=1; T_C=0; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"1/nostub=true/deg2=true":    "ad95131bc0b799c0 stub=1 roots=1 cursor=0 ⟨T_M=2; T_C=0; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"2/nostub=false/deg2=false":  "72a4fa3544e43a83 stub=2 roots=1 cursor=0 ⟨T_M=10; T_C=0; B=2⟩ span=5 obs=d6d497e9d7cb9ca5",
	"2/nostub=false/deg2=true":   "72a4fa3544e43a83 stub=2 roots=1 cursor=0 ⟨T_M=12; T_C=2; B=2⟩ span=5 obs=d6d497e9d7cb9ca5",
	"2/nostub=true/deg2=false":   "72a4fa3544e43a83 stub=1 roots=1 cursor=0 ⟨T_M=9; T_C=1; B=2⟩ span=10 obs=957595bc13c85139",
	"2/nostub=true/deg2=true":    "72a4fa3544e43a83 stub=1 roots=1 cursor=0 ⟨T_M=11; T_C=3; B=2⟩ span=10 obs=957595bc13c85139",
	"3/nostub=false/deg2=false":  "42c89d34df9a4a4a stub=2 roots=1 cursor=0 ⟨T_M=754; T_C=197; B=2⟩ span=383 obs=a952325fcfe3c1c9",
	"3/nostub=false/deg2=true":   "5edbb410166d6aa0 stub=2 roots=1 cursor=0 ⟨T_M=208; T_C=198; B=2⟩ span=5 obs=d6d497e9d7cb9ca5",
	"3/nostub=true/deg2=false":   "42c89d34df9a4a4a stub=1 roots=1 cursor=0 ⟨T_M=747; T_C=197; B=2⟩ span=383 obs=a952325fcfe3c1c9",
	"3/nostub=true/deg2=true":    "5edbb410166d6aa0 stub=1 roots=1 cursor=0 ⟨T_M=207; T_C=199; B=2⟩ span=10 obs=957595bc13c85139",
	"4/nostub=false/deg2=false":  "60819d3b9406839b stub=3 roots=1 cursor=0 ⟨T_M=205; T_C=65; B=2⟩ span=72 obs=032b714b9d908a94",
	"4/nostub=false/deg2=true":   "60819d3b9406839b stub=3 roots=1 cursor=0 ⟨T_M=269; T_C=191; B=2⟩ span=72 obs=032b714b9d908a94",
	"4/nostub=true/deg2=false":   "60819d3b9406839b stub=1 roots=1 cursor=0 ⟨T_M=201; T_C=64; B=2⟩ span=77 obs=b06b0b12bc08d126",
	"4/nostub=true/deg2=true":    "60819d3b9406839b stub=1 roots=1 cursor=0 ⟨T_M=265; T_C=190; B=2⟩ span=77 obs=b06b0b12bc08d126",
	"5/nostub=false/deg2=false":  "afed241cf090f327 stub=2 roots=1 cursor=0 ⟨T_M=276; T_C=76; B=2⟩ span=120 obs=b0957d6c0238aa67",
	"5/nostub=false/deg2=true":   "1b43a04e39e3d618 stub=1 roots=1 cursor=0 ⟨T_M=83; T_C=80; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"5/nostub=true/deg2=false":   "afed241cf090f327 stub=1 roots=1 cursor=0 ⟨T_M=276; T_C=78; B=2⟩ span=126 obs=6f648f3a247b4103",
	"5/nostub=true/deg2=true":    "1b43a04e39e3d618 stub=1 roots=1 cursor=0 ⟨T_M=80; T_C=80; B=2⟩ span=4 obs=79ef6c15dea49e49",
	"6/nostub=false/deg2=false":  "dced3e71232945c9 stub=2 roots=1 cursor=0 ⟨T_M=74; T_C=30; B=2⟩ span=38 obs=25c335fd6996ffc8",
	"6/nostub=false/deg2=true":   "dced3e71232945c9 stub=2 roots=1 cursor=0 ⟨T_M=90; T_C=270; B=2⟩ span=38 obs=25c335fd6996ffc8",
	"6/nostub=true/deg2=false":   "dced3e71232945c9 stub=1 roots=1 cursor=0 ⟨T_M=51; T_C=15; B=2⟩ span=38 obs=486af576c30b8ec8",
	"6/nostub=true/deg2=true":    "dced3e71232945c9 stub=1 roots=1 cursor=0 ⟨T_M=67; T_C=255; B=2⟩ span=38 obs=486af576c30b8ec8",
	"7/nostub=false/deg2=false":  "f9a1aee2a1a5ee5f stub=3 roots=1 cursor=0 ⟨T_M=476; T_C=252; B=2⟩ span=64 obs=ee1c4ddca3534d55",
	"7/nostub=false/deg2=true":   "f9a1aee2a1a5ee5f stub=3 roots=1 cursor=0 ⟨T_M=540; T_C=508; B=2⟩ span=64 obs=ee1c4ddca3534d55",
	"7/nostub=true/deg2=false":   "02886768834e94db stub=1 roots=1 cursor=0 ⟨T_M=474; T_C=252; B=2⟩ span=72 obs=faa54fca92b5c3ef",
	"7/nostub=true/deg2=true":    "02886768834e94db stub=1 roots=1 cursor=0 ⟨T_M=538; T_C=508; B=2⟩ span=72 obs=faa54fca92b5c3ef",
	"8/nostub=false/deg2=false":  "4c559a45fe093eac stub=3 roots=12 cursor=11 ⟨T_M=1413; T_C=600; B=2⟩ span=63 obs=2dbb512cd7dd501e",
	"8/nostub=false/deg2=true":   "897944b9d7de5a29 stub=1 roots=12 cursor=11 ⟨T_M=1240; T_C=1122; B=2⟩ span=62 obs=2fffe1481b7ec929",
	"8/nostub=true/deg2=false":   "baf99a114791cec6 stub=1 roots=12 cursor=11 ⟨T_M=1407; T_C=600; B=2⟩ span=70 obs=95c960efcf28752f",
	"8/nostub=true/deg2=true":    "897944b9d7de5a29 stub=1 roots=12 cursor=11 ⟨T_M=1237; T_C=1122; B=2⟩ span=62 obs=2fffe1481b7ec929",
	"9/nostub=false/deg2=false":  "ad70f5f169e50469 stub=3 roots=1 cursor=0 ⟨T_M=977; T_C=499; B=2⟩ span=53 obs=ebe7f4e4780a61ee",
	"9/nostub=false/deg2=true":   "c91fdd6f7b34252d stub=2 roots=1 cursor=0 ⟨T_M=978; T_C=923; B=2⟩ span=58 obs=b38fb0c6aed3f546",
	"9/nostub=true/deg2=false":   "01dabd41b2c40bb7 stub=1 roots=1 cursor=0 ⟨T_M=967; T_C=497; B=2⟩ span=61 obs=bb65b09406c74ee9",
	"9/nostub=true/deg2=true":    "5b50f35ab5b43970 stub=1 roots=1 cursor=0 ⟨T_M=965; T_C=920; B=2⟩ span=65 obs=c26ca52989c7d07f",
	"10/nostub=false/deg2=false": "487b0198142b40bd stub=2 roots=1 cursor=0 ⟨T_M=863; T_C=432; B=2⟩ span=145 obs=46cdb8da62b32aba",
	"10/nostub=false/deg2=true":  "487b0198142b40bd stub=2 roots=1 cursor=0 ⟨T_M=983; T_C=874; B=2⟩ span=145 obs=46cdb8da62b32aba",
	"10/nostub=true/deg2=false":  "487b0198142b40bd stub=1 roots=1 cursor=0 ⟨T_M=856; T_C=432; B=2⟩ span=145 obs=bc0bb2bea693d624",
	"10/nostub=true/deg2=true":   "487b0198142b40bd stub=1 roots=1 cursor=0 ⟨T_M=976; T_C=874; B=2⟩ span=145 obs=bc0bb2bea693d624",
	"11/nostub=false/deg2=false": "c0e096138ca6ff41 stub=3 roots=1 cursor=0 ⟨T_M=963; T_C=377; B=2⟩ span=83 obs=016dc3b1c5e87dd8",
	"11/nostub=false/deg2=true":  "9803c9705b7ffc29 stub=3 roots=1 cursor=0 ⟨T_M=1025; T_C=738; B=2⟩ span=71 obs=f20c1d6ef1bbd078",
	"11/nostub=true/deg2=false":  "c0e096138ca6ff41 stub=1 roots=1 cursor=0 ⟨T_M=961; T_C=377; B=2⟩ span=88 obs=b3dc3be154938b27",
	"11/nostub=true/deg2=true":   "9803c9705b7ffc29 stub=1 roots=1 cursor=0 ⟨T_M=1023; T_C=738; B=2⟩ span=76 obs=e44a7038dcf497f8",
	"12/nostub=false/deg2=false": "75b4e266d45f5aa5 stub=2 roots=6 cursor=5 ⟨T_M=323; T_C=136; B=2⟩ span=58 obs=e45df4fc29df91bf",
	"12/nostub=false/deg2=true":  "2f2222fe0cd5b78a stub=1 roots=6 cursor=5 ⟨T_M=280; T_C=232; B=2⟩ span=38 obs=80b985b9f246d39b",
	"12/nostub=true/deg2=false":  "75b4e266d45f5aa5 stub=1 roots=6 cursor=5 ⟨T_M=316; T_C=136; B=2⟩ span=58 obs=e45df4fc29df91bf",
	"12/nostub=true/deg2=true":   "2f2222fe0cd5b78a stub=1 roots=6 cursor=5 ⟨T_M=277; T_C=232; B=2⟩ span=38 obs=80b985b9f246d39b",
	"13/nostub=false/deg2=false": "66ae2e62e8276123 stub=3 roots=1 cursor=0 ⟨T_M=476; T_C=252; B=2⟩ span=64 obs=7dbc225e321fabdd",
	"13/nostub=false/deg2=true":  "66ae2e62e8276123 stub=3 roots=1 cursor=0 ⟨T_M=540; T_C=508; B=2⟩ span=64 obs=7dbc225e321fabdd",
	"13/nostub=true/deg2=false":  "e0cd846df4bfa35e stub=1 roots=1 cursor=0 ⟨T_M=474; T_C=252; B=2⟩ span=72 obs=faa54fca92b5c3ef",
	"13/nostub=true/deg2=true":   "e0cd846df4bfa35e stub=1 roots=1 cursor=0 ⟨T_M=538; T_C=508; B=2⟩ span=72 obs=faa54fca92b5c3ef",
	"14/nostub=false/deg2=false": "cfe9c2c29b0f686b stub=2 roots=1 cursor=0 ⟨T_M=323; T_C=108; B=2⟩ span=67 obs=17db9620cfd5ff23",
	"14/nostub=false/deg2=true":  "cfe9c2c29b0f686b stub=2 roots=1 cursor=0 ⟨T_M=378; T_C=230; B=2⟩ span=61 obs=b92520cb48c26f3d",
	"14/nostub=true/deg2=false":  "cfe9c2c29b0f686b stub=1 roots=1 cursor=0 ⟨T_M=316; T_C=108; B=2⟩ span=67 obs=7fb393ee511ff871",
	"14/nostub=true/deg2=true":   "cfe9c2c29b0f686b stub=1 roots=1 cursor=0 ⟨T_M=371; T_C=230; B=2⟩ span=61 obs=ae4acb4e53ad6879",
	"15/nostub=false/deg2=false": "d8cc06a6393b7b4d stub=2 roots=1 cursor=0 ⟨T_M=271; T_C=79; B=2⟩ span=116 obs=9d282dd06c2be915",
	"15/nostub=false/deg2=true":  "d8cc06a6393b7b4d stub=2 roots=1 cursor=0 ⟨T_M=302; T_C=156; B=2⟩ span=110 obs=aec554edbfb4744e",
	"15/nostub=true/deg2=false":  "d8cc06a6393b7b4d stub=1 roots=1 cursor=0 ⟨T_M=264; T_C=79; B=2⟩ span=116 obs=f2d9a9e238b69083",
	"15/nostub=true/deg2=true":   "d8cc06a6393b7b4d stub=1 roots=1 cursor=0 ⟨T_M=295; T_C=156; B=2⟩ span=110 obs=581bacca5569ef39",
	"16/nostub=false/deg2=false": "af9613760f72635f stub=1 roots=8 cursor=7 ⟨T_M=22; T_C=0; B=2⟩ span=4 obs=c9c8abcbf89adae1",
	"16/nostub=false/deg2=true":  "af9613760f72635f stub=1 roots=8 cursor=7 ⟨T_M=30; T_C=0; B=2⟩ span=4 obs=c9c8abcbf89adae1",
	"16/nostub=true/deg2=false":  "af9613760f72635f stub=1 roots=8 cursor=7 ⟨T_M=19; T_C=0; B=2⟩ span=4 obs=c9c8abcbf89adae1",
	"16/nostub=true/deg2=true":   "af9613760f72635f stub=1 roots=8 cursor=7 ⟨T_M=27; T_C=0; B=2⟩ span=4 obs=c9c8abcbf89adae1",
	"17/nostub=false/deg2=false": "83d2c8f9a7bfa259 stub=3 roots=19 cursor=18 ⟨T_M=2110; T_C=900; B=2⟩ span=86 obs=06e6ebc113943d5f",
	"17/nostub=false/deg2=true":  "d103fea3bbb2320f stub=3 roots=19 cursor=18 ⟨T_M=2067; T_C=1668; B=2⟩ span=59 obs=4e3c7e7c7531ef67",
	"17/nostub=true/deg2=false":  "333de2b726cc5984 stub=1 roots=19 cursor=18 ⟨T_M=2112; T_C=900; B=2⟩ span=96 obs=093a89112b253d3a",
	"17/nostub=true/deg2=true":   "116b93509eff269d stub=1 roots=19 cursor=18 ⟨T_M=2065; T_C=1668; B=2⟩ span=69 obs=44c224666c54a443",
	"18/nostub=false/deg2=false": "9d2a0379ee7c304d stub=3 roots=1 cursor=0 ⟨T_M=2207; T_C=959; B=2⟩ span=94 obs=85a9cbe7cd469373",
	"18/nostub=false/deg2=true":  "88824a0ddffa4eea stub=3 roots=1 cursor=0 ⟨T_M=2025; T_C=1636; B=2⟩ span=71 obs=1eef29db1950750b",
	"18/nostub=true/deg2=false":  "c9da772fee46ea8b stub=1 roots=1 cursor=0 ⟨T_M=2209; T_C=959; B=2⟩ span=107 obs=fe852fc5afe11541",
	"18/nostub=true/deg2=true":   "d4d40cadc2988ff2 stub=1 roots=1 cursor=0 ⟨T_M=2077; T_C=1663; B=2⟩ span=82 obs=93db80799c8b28a7",
	"19/nostub=false/deg2=false": "83d195764453f158 stub=2 roots=1 cursor=0 ⟨T_M=774; T_C=217; B=2⟩ span=383 obs=24a2d2c4219ab16f",
	"19/nostub=false/deg2=true":  "63035a490fd8728e stub=3 roots=1 cursor=0 ⟨T_M=235; T_C=234; B=2⟩ span=18 obs=41f487a8f62954c0",
	"19/nostub=true/deg2=false":  "83d195764453f158 stub=1 roots=1 cursor=0 ⟨T_M=767; T_C=217; B=2⟩ span=383 obs=24a2d2c4219ab16f",
	"19/nostub=true/deg2=true":   "6e87d54970a3c566 stub=1 roots=1 cursor=0 ⟨T_M=251; T_C=249; B=2⟩ span=24 obs=b0240af72f84193b",
	"20/nostub=false/deg2=false": "991c01bc11e5ccff stub=2 roots=1 cursor=0 ⟨T_M=1220; T_C=452; B=2⟩ span=96 obs=ac2d1d26508d5018",
	"20/nostub=false/deg2=true":  "df91683d88692e79 stub=3 roots=1 cursor=0 ⟨T_M=1467; T_C=962; B=2⟩ span=96 obs=c8f7e6e046ed484e",
	"20/nostub=true/deg2=false":  "991c01bc11e5ccff stub=1 roots=1 cursor=0 ⟨T_M=1213; T_C=452; B=2⟩ span=96 obs=7a4bef2c9a574df9",
	"20/nostub=true/deg2=true":   "df91683d88692e79 stub=1 roots=1 cursor=0 ⟨T_M=1465; T_C=962; B=2⟩ span=101 obs=dad83b0d6ae17aea",
	"21/nostub=false/deg2=false": "9c6e03c1d88441ae stub=2 roots=8 cursor=7 ⟨T_M=815; T_C=320; B=2⟩ span=78 obs=8ca84e42c77bba4d",
	"21/nostub=false/deg2=true":  "1b723291811b0ab3 stub=2 roots=8 cursor=7 ⟨T_M=653; T_C=538; B=2⟩ span=49 obs=305b6668ddfe1e33",
	"21/nostub=true/deg2=false":  "9c6e03c1d88441ae stub=1 roots=8 cursor=7 ⟨T_M=812; T_C=320; B=2⟩ span=84 obs=b7f1f01437cf9458",
	"21/nostub=true/deg2=true":   "1b723291811b0ab3 stub=1 roots=8 cursor=7 ⟨T_M=650; T_C=538; B=2⟩ span=49 obs=8a3318ce94664bb9",
}
