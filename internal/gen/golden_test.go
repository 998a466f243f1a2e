package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"spantree/internal/graph"
)

// csrHash is the FNV-64a hash of g's CSR arrays: every Offs entry as 8
// little-endian bytes, then every Adj entry as 4.
func csrHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range g.Offs {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, a := range g.Adj {
		binary.LittleEndian.PutUint32(b[:4], uint32(a))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// goldenSpecs is the sweep TestGenerateGolden pins: every kind at
// n ∈ {1, 7, 100, 4096} (complete only up to 100), plus n = 65,536 for
// torus2d and random, each at seeds 1 and 7, with and without
// RandomLabel.
func goldenSpecs() []Spec {
	var specs []Spec
	for _, kind := range Kinds() {
		sizes := []int{1, 7, 100, 4096}
		switch kind {
		case "complete":
			sizes = sizes[:3]
		case "torus2d", "random":
			sizes = append(sizes, 65536)
		}
		for _, n := range sizes {
			for _, seed := range []uint64{1, 7} {
				for _, label := range []bool{false, true} {
					specs = append(specs, Spec{Kind: kind, N: n, Seed: seed, RandomLabel: label})
				}
			}
		}
	}
	return specs
}

func goldenKey(s Spec) string {
	return fmt.Sprintf("%s/%d/%d/%t", s.Kind, s.N, s.Seed, s.RandomLabel)
}

// TestGenerateGolden pins every generator's exact output. The hashes
// were recorded with the comparison-sort builder and the map-based
// unique-edge draw that the linear-time construction replaced, so a
// change to either that alters a single offset or neighbour fails here.
func TestGenerateGolden(t *testing.T) {
	for _, s := range goldenSpecs() {
		g, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", goldenKey(s), err)
		}
		got := csrHash(g)
		want, ok := goldenHashes[goldenKey(s)]
		if !ok {
			t.Errorf("no golden hash for %q (got %#016x)", goldenKey(s), got)
			continue
		}
		if got != want {
			t.Errorf("%s: hash %#016x, want %#016x", goldenKey(s), got, want)
		}
	}
	if len(goldenHashes) != len(goldenSpecs()) {
		t.Errorf("%d golden hashes for %d specs", len(goldenHashes), len(goldenSpecs()))
	}
}

var goldenHashes = map[string]uint64{
	"ad3/1/1/false":            0x88201fb960ff6465,
	"ad3/1/1/true":             0x88201fb960ff6465,
	"ad3/1/7/false":            0x88201fb960ff6465,
	"ad3/1/7/true":             0x88201fb960ff6465,
	"ad3/7/1/false":            0xd53f1d9b0f4a2f47,
	"ad3/7/1/true":             0xe4d0ef4071b1d92b,
	"ad3/7/7/false":            0xa2dd1bc4a10f2c61,
	"ad3/7/7/true":             0x88cf071869bbaa21,
	"ad3/100/1/false":          0xf9b7d0ff6a66abb8,
	"ad3/100/1/true":           0x58dbffa9260c847b,
	"ad3/100/7/false":          0x93bc3facb7811def,
	"ad3/100/7/true":           0x4ccffb8608988e1a,
	"ad3/4096/1/false":         0x8807376fd2622ba8,
	"ad3/4096/1/true":          0x8b76c262ad396b0d,
	"ad3/4096/7/false":         0x6c7b37b111e52683,
	"ad3/4096/7/true":          0x2244ff51595c39d9,
	"bintree/1/1/false":        0x88201fb960ff6465,
	"bintree/1/1/true":         0x88201fb960ff6465,
	"bintree/1/7/false":        0x88201fb960ff6465,
	"bintree/1/7/true":         0x88201fb960ff6465,
	"bintree/7/1/false":        0x98d188f8475ba829,
	"bintree/7/1/true":         0xe84309ee30553303,
	"bintree/7/7/false":        0x98d188f8475ba829,
	"bintree/7/7/true":         0x86f17d9dc55b254b,
	"bintree/100/1/false":      0x26353d2847e112d1,
	"bintree/100/1/true":       0x673da2d335c7234d,
	"bintree/100/7/false":      0x26353d2847e112d1,
	"bintree/100/7/true":       0xcf15701ad4dbeb01,
	"bintree/4096/1/false":     0x9c2bb86a3e8a10b6,
	"bintree/4096/1/true":      0x3b8af722f9c1ac8e,
	"bintree/4096/7/false":     0x9c2bb86a3e8a10b6,
	"bintree/4096/7/true":      0xff0cccc03d03f21b,
	"caterpillar/1/1/false":    0x88201fb960ff6465,
	"caterpillar/1/1/true":     0x88201fb960ff6465,
	"caterpillar/1/7/false":    0x88201fb960ff6465,
	"caterpillar/1/7/true":     0x88201fb960ff6465,
	"caterpillar/7/1/false":    0x9db2d78bae1f1379,
	"caterpillar/7/1/true":     0xf61bd0cb01d4f9c3,
	"caterpillar/7/7/false":    0x9db2d78bae1f1379,
	"caterpillar/7/7/true":     0x8921274b3a3c8a1b,
	"caterpillar/100/1/false":  0x824f38d5b9815b71,
	"caterpillar/100/1/true":   0xd896ce022acd9fdd,
	"caterpillar/100/7/false":  0x824f38d5b9815b71,
	"caterpillar/100/7/true":   0xb8dc427d75aa6d91,
	"caterpillar/4096/1/false": 0x946be2bd271d1c56,
	"caterpillar/4096/1/true":  0x4e98a223da17d1a2,
	"caterpillar/4096/7/false": 0x946be2bd271d1c56,
	"caterpillar/4096/7/true":  0xbb81f57b98eb6a57,
	"chain/1/1/false":          0x88201fb960ff6465,
	"chain/1/1/true":           0x88201fb960ff6465,
	"chain/1/7/false":          0x88201fb960ff6465,
	"chain/1/7/true":           0x88201fb960ff6465,
	"chain/7/1/false":          0x323afa38364c393d,
	"chain/7/1/true":           0x65680e7c7c0da5af,
	"chain/7/7/false":          0x323afa38364c393d,
	"chain/7/7/true":           0xfaf112f24cd8522f,
	"chain/100/1/false":        0xc3aa351c39be50b7,
	"chain/100/1/true":         0x32b6ff4cd84ac79f,
	"chain/100/7/false":        0xc3aa351c39be50b7,
	"chain/100/7/true":         0xda4e9c0a50eeec7f,
	"chain/4096/1/false":       0x206d1332fc371d4e,
	"chain/4096/1/true":        0x55956a4af1c842e8,
	"chain/4096/7/false":       0x206d1332fc371d4e,
	"chain/4096/7/true":        0x1de325de6791f575,
	"complete/1/1/false":       0x88201fb960ff6465,
	"complete/1/1/true":        0x88201fb960ff6465,
	"complete/1/7/false":       0x88201fb960ff6465,
	"complete/1/7/true":        0x88201fb960ff6465,
	"complete/7/1/false":       0x72f41c550dca2ba5,
	"complete/7/1/true":        0x72f41c550dca2ba5,
	"complete/7/7/false":       0x72f41c550dca2ba5,
	"complete/7/7/true":        0x72f41c550dca2ba5,
	"complete/100/1/false":     0xf8df4fe3c3c840a6,
	"complete/100/1/true":      0xf8df4fe3c3c840a6,
	"complete/100/7/false":     0xf8df4fe3c3c840a6,
	"complete/100/7/true":      0xf8df4fe3c3c840a6,
	"cycle/1/1/false":          0x88201fb960ff6465,
	"cycle/1/1/true":           0x88201fb960ff6465,
	"cycle/1/7/false":          0x88201fb960ff6465,
	"cycle/1/7/true":           0x88201fb960ff6465,
	"cycle/7/1/false":          0xce5ef97a6a204dd5,
	"cycle/7/1/true":           0xeb788125af7939f5,
	"cycle/7/7/false":          0xce5ef97a6a204dd5,
	"cycle/7/7/true":           0xff1431a352857ff5,
	"cycle/100/1/false":        0x126f40e0787e3aed,
	"cycle/100/1/true":         0x4cfe035f3626b21d,
	"cycle/100/7/false":        0x126f40e0787e3aed,
	"cycle/100/7/true":         0x93c9d69d10eb094d,
	"cycle/4096/1/false":       0x18555596e8578785,
	"cycle/4096/1/true":        0x7c3c6018364e307d,
	"cycle/4096/7/false":       0x18555596e8578785,
	"cycle/4096/7/true":        0x4a81d8733bece449,
	"geoflat/1/1/false":        0x88201fb960ff6465,
	"geoflat/1/1/true":         0x88201fb960ff6465,
	"geoflat/1/7/false":        0x88201fb960ff6465,
	"geoflat/1/7/true":         0x88201fb960ff6465,
	"geoflat/7/1/false":        0xa9136a630c3b04c7,
	"geoflat/7/1/true":         0x1e07da1b8ddf1145,
	"geoflat/7/7/false":        0xc7f7723779c42929,
	"geoflat/7/7/true":         0x50f0a3a6c18e6213,
	"geoflat/100/1/false":      0xced0aea38d027dc1,
	"geoflat/100/1/true":       0x3e786c6ab7b42418,
	"geoflat/100/7/false":      0x0a504848fbb30562,
	"geoflat/100/7/true":       0xb4f9a133e1561017,
	"geoflat/4096/1/false":     0xb2e614eb76481cc2,
	"geoflat/4096/1/true":      0xd75e18984c197a65,
	"geoflat/4096/7/false":     0x73af487fbeb045d2,
	"geoflat/4096/7/true":      0x4bf7c14466efdd59,
	"geohier/1/1/false":        0x88201fb960ff6465,
	"geohier/1/1/true":         0x88201fb960ff6465,
	"geohier/1/7/false":        0x88201fb960ff6465,
	"geohier/1/7/true":         0x88201fb960ff6465,
	"geohier/7/1/false":        0xc600a842e358068d,
	"geohier/7/1/true":         0x626c32fb47bfe141,
	"geohier/7/7/false":        0x82b7c5ec917f7cff,
	"geohier/7/7/true":         0x7737a22492f4d829,
	"geohier/100/1/false":      0xd427b3203617b405,
	"geohier/100/1/true":       0x78bd32d9bc3d0831,
	"geohier/100/7/false":      0x54f625eceedc9c55,
	"geohier/100/7/true":       0xcc92d707985e0b51,
	"geohier/4096/1/false":     0x3a1a7cf920309467,
	"geohier/4096/1/true":      0xcbc33f88376e3968,
	"geohier/4096/7/false":     0x5182a889f5df34c2,
	"geohier/4096/7/true":      0x777e4efffc1a4c3f,
	"geometric/1/1/false":      0x88201fb960ff6465,
	"geometric/1/1/true":       0x88201fb960ff6465,
	"geometric/1/7/false":      0x88201fb960ff6465,
	"geometric/1/7/true":       0x88201fb960ff6465,
	"geometric/7/1/false":      0xd53f1d9b0f4a2f47,
	"geometric/7/1/true":       0xe4d0ef4071b1d92b,
	"geometric/7/7/false":      0xa2dd1bc4a10f2c61,
	"geometric/7/7/true":       0x88cf071869bbaa21,
	"geometric/100/1/false":    0xf9b7d0ff6a66abb8,
	"geometric/100/1/true":     0x58dbffa9260c847b,
	"geometric/100/7/false":    0x93bc3facb7811def,
	"geometric/100/7/true":     0x4ccffb8608988e1a,
	"geometric/4096/1/false":   0x8807376fd2622ba8,
	"geometric/4096/1/true":    0x8b76c262ad396b0d,
	"geometric/4096/7/false":   0x6c7b37b111e52683,
	"geometric/4096/7/true":    0x2244ff51595c39d9,
	"grid2d/1/1/false":         0x88201fb960ff6465,
	"grid2d/1/1/true":          0x88201fb960ff6465,
	"grid2d/1/7/false":         0x88201fb960ff6465,
	"grid2d/1/7/true":          0x88201fb960ff6465,
	"grid2d/7/1/false":         0xed098bcda9ca75ad,
	"grid2d/7/1/true":          0x7985bd8b2c274459,
	"grid2d/7/7/false":         0xed098bcda9ca75ad,
	"grid2d/7/7/true":          0xd4c95ab6924b8991,
	"grid2d/100/1/false":       0x059f52420e145f42,
	"grid2d/100/1/true":        0x8fb62ba6d19404ca,
	"grid2d/100/7/false":       0x059f52420e145f42,
	"grid2d/100/7/true":        0xf8363ad50d23ce3c,
	"grid2d/4096/1/false":      0xe9877ef442dd897d,
	"grid2d/4096/1/true":       0xcfb8daf950e5c953,
	"grid2d/4096/7/false":      0xe9877ef442dd897d,
	"grid2d/4096/7/true":       0x28c2b6ce7d752e33,
	"mesh2d60/1/1/false":       0x88201fb960ff6465,
	"mesh2d60/1/1/true":        0x88201fb960ff6465,
	"mesh2d60/1/7/false":       0x88201fb960ff6465,
	"mesh2d60/1/7/true":        0x88201fb960ff6465,
	"mesh2d60/7/1/false":       0x6b457ab28b6ca5ef,
	"mesh2d60/7/1/true":        0x701879a435de76f9,
	"mesh2d60/7/7/false":       0x09e5f89660a44fd9,
	"mesh2d60/7/7/true":        0xe77eb6179dccb84d,
	"mesh2d60/100/1/false":     0x7e453a15114a5f69,
	"mesh2d60/100/1/true":      0xa72c97b94e2423d3,
	"mesh2d60/100/7/false":     0x85c7626f7eec37f1,
	"mesh2d60/100/7/true":      0x302a384337520833,
	"mesh2d60/4096/1/false":    0xf14a432d0ab3013c,
	"mesh2d60/4096/1/true":     0x8fff25e1fb14bfba,
	"mesh2d60/4096/7/false":    0xf79250a4c9f32929,
	"mesh2d60/4096/7/true":     0x239435903d9917f5,
	"mesh3d40/1/1/false":       0x88201fb960ff6465,
	"mesh3d40/1/1/true":        0x88201fb960ff6465,
	"mesh3d40/1/7/false":       0x88201fb960ff6465,
	"mesh3d40/1/7/true":        0x88201fb960ff6465,
	"mesh3d40/7/1/false":       0x5a486bbc6e7384cd,
	"mesh3d40/7/1/true":        0x40fa57803873c797,
	"mesh3d40/7/7/false":       0xa41290b4c79cf295,
	"mesh3d40/7/7/true":        0x5b69ac0055b2d98d,
	"mesh3d40/100/1/false":     0x4cc54a4fc360f6eb,
	"mesh3d40/100/1/true":      0x0fa2a376e42eb9ab,
	"mesh3d40/100/7/false":     0x23642072f0e8d1ee,
	"mesh3d40/100/7/true":      0x57424cc10304a3f0,
	"mesh3d40/4096/1/false":    0xa28dab16b169a163,
	"mesh3d40/4096/1/true":     0xea11d135e5b8473f,
	"mesh3d40/4096/7/false":    0x18f9945dd1e73aa8,
	"mesh3d40/4096/7/true":     0xdb5fc481edbf6101,
	"random/1/1/false":         0x88201fb960ff6465,
	"random/1/1/true":          0x88201fb960ff6465,
	"random/1/7/false":         0x88201fb960ff6465,
	"random/1/7/true":          0x88201fb960ff6465,
	"random/7/1/false":         0xb41c9e2ae131fc0d,
	"random/7/1/true":          0x7965f0e0e4c12197,
	"random/7/7/false":         0xc6ab6778eb8414f7,
	"random/7/7/true":          0x28daf818bc092a55,
	"random/100/1/false":       0x703890325dc04520,
	"random/100/1/true":        0x8ecfb8160be87978,
	"random/100/7/false":       0x499903754683c0d4,
	"random/100/7/true":        0x83c7170f0e5940ed,
	"random/4096/1/false":      0x1d429c9d26746e36,
	"random/4096/1/true":       0xee4cc47dabb1a158,
	"random/4096/7/false":      0x2ad4f55f10e47bb5,
	"random/4096/7/true":       0x02506e92cc93f066,
	"random/65536/1/false":     0xad78dce6632949c7,
	"random/65536/1/true":      0xec6ae61819fc6cd6,
	"random/65536/7/false":     0xe94e91a832e0191e,
	"random/65536/7/true":      0xc51b521c3b06b611,
	"star/1/1/false":           0x88201fb960ff6465,
	"star/1/1/true":            0x88201fb960ff6465,
	"star/1/7/false":           0x88201fb960ff6465,
	"star/1/7/true":            0x88201fb960ff6465,
	"star/7/1/false":           0x64d1270dfd9b0bcf,
	"star/7/1/true":            0xa9482b4d6cf0018f,
	"star/7/7/false":           0x64d1270dfd9b0bcf,
	"star/7/7/true":            0xdd823c99ba29e705,
	"star/100/1/false":         0xe5a061c58fb51b01,
	"star/100/1/true":          0x740757aef11b2e81,
	"star/100/7/false":         0xe5a061c58fb51b01,
	"star/100/7/true":          0x38d61207b2b248bd,
	"star/4096/1/false":        0xa0c482074e456b75,
	"star/4096/1/true":         0xc6c96e166a5ff39a,
	"star/4096/7/false":        0xa0c482074e456b75,
	"star/4096/7/true":         0x2a1926a571129f20,
	"torus2d/1/1/false":        0x88201fb960ff6465,
	"torus2d/1/1/true":         0x88201fb960ff6465,
	"torus2d/1/7/false":        0x88201fb960ff6465,
	"torus2d/1/7/true":         0x88201fb960ff6465,
	"torus2d/7/1/false":        0xefae4a09b2719001,
	"torus2d/7/1/true":         0x67b34a6e1815fd31,
	"torus2d/7/7/false":        0xefae4a09b2719001,
	"torus2d/7/7/true":         0x4fc52e2074445211,
	"torus2d/100/1/false":      0x012b1338600ee79a,
	"torus2d/100/1/true":       0x03d363400161d4ba,
	"torus2d/100/7/false":      0x012b1338600ee79a,
	"torus2d/100/7/true":       0xaeacf0c77aee532a,
	"torus2d/4096/1/false":     0xcbff05426ec93b9d,
	"torus2d/4096/1/true":      0x4f8dffda5baec89d,
	"torus2d/4096/7/false":     0xcbff05426ec93b9d,
	"torus2d/4096/7/true":      0x4dc538a5c8e81ea5,
	"torus2d/65536/1/false":    0xc9166fbbb276d1b9,
	"torus2d/65536/1/true":     0x7b348f430c1a9a71,
	"torus2d/65536/7/false":    0xc9166fbbb276d1b9,
	"torus2d/65536/7/true":     0xa551f0c678ab03e5,
}

// drawSpecs is the sweep TestRandomDrawGolden pins, at seeds 1 and 7:
// G(n, m) with an explicit m in the dense and clamped regimes (n = 64 up
// to and past its 2016 possible edges; n = 2 and 3, whose graphs are
// complete after one or three edges), where the unique-edge draw's
// top-up is a large share of m, and RandomConnected, which builds the
// Fig. 3 inputs, complete at (7, 21), dense at (64, 1000) and (64, 2000)
// and at the paper's density at (4096, 6144). A complete graph's hash
// does not depend on the draw, but its top-up is the longest.
func drawSpecs() []string {
	var keys []string
	for _, seed := range []uint64{1, 7} {
		for _, nm := range [][2]int{{64, 500}, {64, 1500}, {64, 2000}, {64, 2016}, {64, 5000},
			{2, 1}, {2, 3}, {3, 1}, {3, 2}, {3, 3}, {3, 5}} {
			keys = append(keys, fmt.Sprintf("random/%d/%d/%d", nm[0], nm[1], seed))
		}
		for _, nm := range [][2]int{{7, 21}, {64, 1000}, {64, 2000}, {4096, 6144}} {
			keys = append(keys, fmt.Sprintf("randconn/%d/%d/%d", nm[0], nm[1], seed))
		}
	}
	return keys
}

// drawGraph builds the graph a drawSpecs key names.
func drawGraph(t *testing.T, key string) *graph.Graph {
	t.Helper()
	var kind string
	var n, m int
	var seed uint64
	if _, err := fmt.Sscanf(strings.ReplaceAll(key, "/", " "), "%s %d %d %d", &kind, &n, &m, &seed); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if kind == "randconn" {
		return RandomConnected(n, m, seed)
	}
	g, err := Generate(Spec{Kind: kind, N: n, M: m, Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return g
}

// TestRandomDrawGolden pins the unique-edge draw where TestGenerateGolden
// does not reach: its m = 1.5n graphs need only a couple of top-up
// draws. The hashes were recorded with the open-addressing edge set the
// sort-based draw replaced.
func TestRandomDrawGolden(t *testing.T) {
	for _, key := range drawSpecs() {
		got := csrHash(drawGraph(t, key))
		want, ok := drawHashes[key]
		if !ok {
			t.Errorf("no golden hash for %q (got %#016x)", key, got)
			continue
		}
		if got != want {
			t.Errorf("%s: hash %#016x, want %#016x", key, got, want)
		}
	}
	if len(drawHashes) != len(drawSpecs()) {
		t.Errorf("%d golden hashes for %d specs", len(drawHashes), len(drawSpecs()))
	}
}

var drawHashes = map[string]uint64{
	"random/64/500/1":      0xd04a03f7d5475d07,
	"random/64/1500/1":     0xea57a13a4cc83ebd,
	"random/64/2000/1":     0xe56231d4e7aaf47a,
	"random/64/2016/1":     0x9f425ae4d9b41da5,
	"random/64/5000/1":     0x9f425ae4d9b41da5,
	"random/2/1/1":         0xa2d159d5c13a85e7,
	"random/2/3/1":         0xa2d159d5c13a85e7,
	"random/3/1/1":         0xc22c31e01bb5a265,
	"random/3/2/1":         0x6cb20554eca52ac3,
	"random/3/3/1":         0x001b2f014e6c3ff5,
	"random/3/5/1":         0x001b2f014e6c3ff5,
	"randconn/7/21/1":      0x72f41c550dca2ba5,
	"randconn/64/1000/1":   0x5d459c497c70148e,
	"randconn/64/2000/1":   0xd3c0a90db9413d93,
	"randconn/4096/6144/1": 0x7e58d0a9e2b40373,
	"random/64/500/7":      0xc310636360af35f5,
	"random/64/1500/7":     0xaee1b4f892fb030d,
	"random/64/2000/7":     0x33cc311934f41424,
	"random/64/2016/7":     0x9f425ae4d9b41da5,
	"random/64/5000/7":     0x9f425ae4d9b41da5,
	"random/2/1/7":         0xa2d159d5c13a85e7,
	"random/2/3/7":         0xa2d159d5c13a85e7,
	"random/3/1/7":         0xc22c31e01bb5a265,
	"random/3/2/7":         0x5e99d426dff31133,
	"random/3/3/7":         0x001b2f014e6c3ff5,
	"random/3/5/7":         0x001b2f014e6c3ff5,
	"randconn/7/21/7":      0x72f41c550dca2ba5,
	"randconn/64/1000/7":   0x483eca66eba6bd1c,
	"randconn/64/2000/7":   0xd0b22b9209bdae4c,
	"randconn/4096/6144/7": 0xb1bc9f88406351e1,
}
