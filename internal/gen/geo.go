package gen

import (
	"fmt"
	"math"

	"spantree/internal/graph"
	"spantree/internal/xrand"
)

// GeoFlatParams configures the flat-mode geographic generator, a
// Waxman-style wide-area-network model (Calvert, Doar, Zegura): vertices
// are placed uniformly at random in the unit square, and an edge joins a
// pair at distance d with probability Alpha * exp(-d / (Beta * L)),
// where L is the maximum possible distance (sqrt(2) for the unit
// square). Only pairs within CutoffL * L are considered, which bounds
// the work at O(n * density) for the strongly distance-decayed
// parameters used in topology modeling.
type GeoFlatParams struct {
	Alpha   float64
	Beta    float64
	CutoffL float64
}

// DefaultGeoFlatParams returns parameters producing sparse graphs with
// average degree around 6-10 at every size, the regime of the paper's
// geographic inputs: CutoffL = 0 selects the scale-aware cutoff, which
// shrinks as 1/sqrt(n) so the expected neighborhood — and therefore the
// average degree — stays constant as the graph grows.
func DefaultGeoFlatParams() GeoFlatParams {
	return GeoFlatParams{Alpha: 0.9, Beta: 0, CutoffL: 0}
}

// effective resolves the parameters for an n-point instance: explicit
// values pass through; zero CutoffL/Beta select the scale-aware cutoff
// radius (a ~48-point expected candidate pool) and a decay length of a
// third of it.
func (p GeoFlatParams) effective(n int) (cutoff, betaL float64) {
	const sqrt2 = 1.4142135623730951
	cutoff = p.CutoffL * sqrt2
	if p.CutoffL == 0 && n > 0 {
		cutoff = math.Sqrt(48.0 / (math.Pi * float64(n)))
		if cutoff > 0.7 {
			cutoff = 0.7
		}
	}
	betaL = p.Beta * sqrt2
	if p.Beta == 0 {
		betaL = cutoff / 3
	}
	return cutoff, betaL
}

// GeoFlat generates a flat-mode geographic graph on n vertices.
func GeoFlat(n int, p GeoFlatParams, seed uint64) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: GeoFlat(%d) with negative n", n))
	}
	r := rng(seed, 'F')
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := graph.NewBuilder(n)
	addWaxmanEdges(b, xs, ys, nil, p, r)
	g := b.Build()
	g.Name = fmt.Sprintf("geoflat-n%d", n)
	return g
}

// addWaxmanEdges adds distance-probability edges among the points,
// optionally restricted to indices in subset (nil = all points). Pairs
// beyond the cutoff distance are skipped via a uniform grid.
func addWaxmanEdges(b *graph.Builder, xs, ys []float64, subset []graph.VID, p GeoFlatParams, r *xrand.Rand) {
	count := len(xs)
	if subset != nil {
		count = len(subset)
	}
	cutoff, betaL := p.effective(count)
	if cutoff <= 0 {
		return
	}
	idx := subset
	if idx == nil {
		idx = make([]graph.VID, len(xs))
		for i := range idx {
			idx[i] = graph.VID(i)
		}
	}
	side := int(1.0 / cutoff)
	if side < 1 {
		side = 1
	}
	cells := make(map[int][]graph.VID)
	cellOf := func(x, y float64) (int, int) {
		cx, cy := int(x*float64(side)), int(y*float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	for _, v := range idx {
		cx, cy := cellOf(xs[v], ys[v])
		key := cy*side + cx
		cells[key] = append(cells[key], v)
	}
	for _, v := range idx {
		cx, cy := cellOf(xs[v], ys[v])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= side || ny < 0 || ny >= side {
					continue
				}
				for _, w := range cells[ny*side+nx] {
					if w <= v { // each unordered pair considered once
						continue
					}
					ddx, ddy := xs[w]-xs[v], ys[w]-ys[v]
					d := math.Sqrt(ddx*ddx + ddy*ddy)
					if d > cutoff {
						continue
					}
					if r.Prob(p.Alpha * math.Exp(-d/betaL)) {
						b.AddEdge(v, w)
					}
				}
			}
		}
	}
}

// GeoHierParams configures the hierarchical-mode geographic generator:
// the Internet is modeled as a backbone of core routers, domains
// clustered around backbone nodes, and subdomains clustered around
// domain nodes, following the transit-stub structure of Calvert, Doar
// and Zegura.
type GeoHierParams struct {
	// Backbone is the number of backbone vertices.
	Backbone int
	// DomainsPerBackbone and NodesPerDomain shape the middle tier.
	DomainsPerBackbone int
	NodesPerDomain     int
	// SubdomainProb is the probability a domain node sprouts a subdomain;
	// NodesPerSubdomain sizes it.
	SubdomainProb     float64
	NodesPerSubdomain int
	// Spread is the standard deviation of cluster placement around the
	// parent node, as a fraction of the unit square.
	Spread float64
	// IntraEdgeProb adds extra intra-cluster edges beyond the spanning
	// star, making clusters 2-edge-connected in expectation.
	IntraEdgeProb float64
}

// DefaultGeoHierParams returns a transit-stub-like shape.
func DefaultGeoHierParams() GeoHierParams {
	return GeoHierParams{
		Backbone:           16,
		DomainsPerBackbone: 3,
		NodesPerDomain:     8,
		SubdomainProb:      0.3,
		NodesPerSubdomain:  6,
		Spread:             0.03,
		IntraEdgeProb:      0.25,
	}
}

// GeoHier generates a hierarchical geographic graph with approximately n
// vertices: the tier sizes from p are scaled so the total vertex budget
// is n, then backbone, domains and subdomains are placed and wired. The
// returned graph is connected by construction (each tier is wired to its
// parent and the backbone is a connected Waxman graph augmented with a
// path).
func GeoHier(n int, p GeoHierParams, seed uint64) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: GeoHier(%d) with negative n", n))
	}
	if n == 0 {
		g := graph.NewBuilder(0).Build()
		g.Name = "geohier-n0"
		return g
	}
	r := rng(seed, 'H')
	backbone := p.backbone(n)

	type point struct{ x, y float64 }
	pts := make([]point, 0, n)
	addPoint := func(x, y float64) (graph.VID, bool) {
		if len(pts) >= n {
			return 0, false
		}
		pts = append(pts, point{clamp01(x), clamp01(y)})
		return graph.VID(len(pts) - 1), true
	}

	b := graph.NewBuilder(n)
	// Tier 1: backbone.
	bb := make([]graph.VID, 0, backbone)
	for i := 0; i < backbone; i++ {
		v, ok := addPoint(r.Float64(), r.Float64())
		if !ok {
			break
		}
		bb = append(bb, v)
	}
	// Wire the backbone: a path guarantees connectivity, Waxman edges add
	// realistic shortcuts.
	for i := 1; i < len(bb); i++ {
		b.AddEdge(bb[i-1], bb[i])
	}

	gauss := func(mu, sigma float64) float64 {
		// Box-Muller transform.
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		u2 := r.Float64()
		return mu + sigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
	}

	// Tier 2 and 3: domains around backbone nodes, subdomains around
	// domain nodes.
	for _, bv := range bb {
		bx, by := pts[bv].x, pts[bv].y
		for d := 0; d < p.DomainsPerBackbone; d++ {
			var domain []graph.VID
			for k := 0; k < p.NodesPerDomain; k++ {
				v, ok := addPoint(gauss(bx, p.Spread), gauss(by, p.Spread))
				if !ok {
					break
				}
				domain = append(domain, v)
			}
			if len(domain) == 0 {
				continue
			}
			// Gateway connects the domain to its backbone node; the rest of
			// the domain forms a star on the gateway plus random chords.
			b.AddEdge(bv, domain[0])
			for i := 1; i < len(domain); i++ {
				b.AddEdge(domain[0], domain[i])
				if r.Prob(p.IntraEdgeProb) {
					b.AddEdge(domain[i], domain[r.Intn(i)])
				}
			}
			for _, dv := range domain {
				if !r.Prob(p.SubdomainProb) {
					continue
				}
				dx, dy := pts[dv].x, pts[dv].y
				var sub []graph.VID
				for k := 0; k < p.NodesPerSubdomain; k++ {
					v, ok := addPoint(gauss(dx, p.Spread/3), gauss(dy, p.Spread/3))
					if !ok {
						break
					}
					sub = append(sub, v)
				}
				if len(sub) == 0 {
					continue
				}
				b.AddEdge(dv, sub[0])
				for i := 1; i < len(sub); i++ {
					b.AddEdge(sub[0], sub[i])
					if r.Prob(p.IntraEdgeProb) {
						b.AddEdge(sub[i], sub[r.Intn(i)])
					}
				}
			}
		}
	}
	// Any remaining vertex budget becomes extra domain nodes on random
	// backbone vertices so the graph has exactly n vertices, connected.
	for len(pts) < n {
		bv := bb[r.Intn(len(bb))]
		v, _ := addPoint(gauss(pts[bv].x, p.Spread), gauss(pts[bv].y, p.Spread))
		b.AddEdge(bv, v)
	}
	// Waxman shortcuts over the backbone tier using the final coordinates.
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i], ys[i] = pt.x, pt.y
	}
	addWaxmanEdges(b, xs, ys, bb, GeoFlatParams{Alpha: 0.8, Beta: 0.15, CutoffL: 0.5}, r)

	g := b.Build()
	g.Name = fmt.Sprintf("geohier-n%d", n)
	return g
}

// backbone returns the number of backbone vertices of an n-vertex
// graph: the tier shape scaled to the vertex budget, where a backbone
// node accounts for itself plus its expected subtree.
func (p GeoHierParams) backbone(n int) int {
	perDomain := float64(p.NodesPerDomain) * (1 + p.SubdomainProb*float64(p.NodesPerSubdomain)/float64(max(1, p.NodesPerDomain)))
	perBackbone := 1 + float64(p.DomainsPerBackbone)*perDomain
	return min(max(int(float64(n)/perBackbone+0.5), 1), n)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
