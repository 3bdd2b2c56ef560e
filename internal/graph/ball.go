package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ball is the radius-t ball B_G(v,t) of the paper (§2.1.1): the subgraph of
// G induced by all nodes at distance at most t from v, *excluding the edges
// between nodes at distance exactly t* from v. The exclusion matters: it is
// what makes a t-round view collect exactly the information that can reach
// v in t rounds, and the legality of a ball must be preserved when the ball
// reappears inside a different host graph (§1.1).
type Ball struct {
	// G is the ball as a standalone graph on local indices 0..len(Nodes)-1.
	// Local index 0 is always the center. Port order of surviving edges
	// matches the host graph's port order.
	G *Graph
	// Nodes maps local index -> host-graph node.
	Nodes []int
	// Dist maps local index -> distance from the center in the host graph.
	Dist []int
	// Ports maps, in parallel with G's adjacency lists, each surviving
	// local edge to the port index it occupies at the host node:
	// Ports[i][j] is the host port of Nodes[i] for the edge to local
	// neighbor G.Neighbors(i)[j]. Algorithms whose outputs reference ports
	// (e.g. matchings) interpret them through this map.
	Ports [][]int
	// Radius is the t used for extraction.
	Radius int
}

// BallAround extracts B_G(v,t). It runs one BFS over pooled scratch, so
// a call costs O(ball) regardless of the host graph's size, and the ball
// is assembled in a fixed handful of allocations: its adjacency and port
// rows are carved from one backing slab each.
func (g *Graph) BallAround(v, t int) *Ball {
	sc := ballPool.Get().(*ballScratch)
	sc.within(g, v, t)
	s := len(sc.nodes)
	edges := 0
	for i, u := range sc.nodes {
		for _, w := range g.adj[u] {
			if sc.edge(i, w, t) >= 0 {
				edges++
			}
		}
	}
	// Nodes, Dist and the port rows share one []int slab.
	ints := make([]int, 2*s+edges)
	nodes, dists, portSlab := ints[:s:s], ints[s:2*s:2*s], ints[2*s:]
	copy(nodes, sc.nodes)
	copy(dists, sc.dist)
	adjSlab := make([]int32, edges)
	adj := make([][]int32, s)
	ports := make([][]int, s)
	off := 0
	for i, u := range sc.nodes {
		start := off
		for p, w := range g.adj[u] {
			if j := sc.edge(i, w, t); j >= 0 {
				adjSlab[off] = j
				portSlab[off] = p
				off++
			}
		}
		if off > start {
			adj[i] = adjSlab[start:off:off]
			ports[i] = portSlab[start:off:off]
		}
	}
	sc.release()
	bg := new(struct {
		b Ball
		g Graph
	})
	bg.g = Graph{adj: adj, m: edges / 2}
	bg.b = Ball{G: &bg.g, Nodes: nodes, Dist: dists, Ports: ports, Radius: t}
	return &bg.b
}

// ballScratch is the reusable state of one radius-t BFS. local maps a
// host node to its ball-local index plus one (0: not in the ball); nodes
// and dist hold the discovery order and distances. Between uses local is
// all zero: release clears exactly the entries the BFS set, through the
// node list, so no call pays for the host graph's size.
type ballScratch struct {
	local []int32
	nodes []int
	dist  []int
}

var ballPool = sync.Pool{New: func() any { return new(ballScratch) }}

// within runs the BFS of B_G(v,t) from v in port order (a negative t
// never stops, covering v's whole component). An out-of-range v panics
// before any mark is set.
func (sc *ballScratch) within(g *Graph, v, t int) {
	n := g.N()
	if cap(sc.local) < n {
		sc.local = make([]int32, n)
	}
	sc.local = sc.local[:n]
	nodes := append(sc.nodes[:0], v)
	dist := append(sc.dist[:0], 0)
	sc.local[v] = 1
	for i := 0; i < len(nodes); i++ {
		if dist[i] == t {
			continue
		}
		for _, w := range g.adj[nodes[i]] {
			if sc.local[w] == 0 {
				nodes = append(nodes, int(w))
				dist = append(dist, dist[i]+1)
				sc.local[w] = int32(len(nodes))
			}
		}
	}
	sc.nodes, sc.dist = nodes, dist
}

// edge returns the ball-local index of host neighbor w of ball node i
// when the edge survives into the ball, or -1: w must be in the ball,
// and frontier-edge exclusion drops edges joining two nodes at distance
// exactly t from the center.
func (sc *ballScratch) edge(i int, w int32, t int) int32 {
	j := sc.local[w] - 1
	if j < 0 || (sc.dist[i] == t && sc.dist[j] == t) {
		return -1
	}
	return j
}

// release clears the BFS marks and returns the scratch to the pool.
// Callers release only after a clean extraction: a scratch abandoned by
// a panic is dropped, never pooled with stale marks.
func (sc *ballScratch) release() {
	for _, u := range sc.nodes {
		sc.local[u] = 0
	}
	ballPool.Put(sc)
}

// Center returns the host-graph node at the center of the ball.
func (b *Ball) Center() int { return b.Nodes[0] }

// Size returns the number of nodes in the ball.
func (b *Ball) Size() int { return len(b.Nodes) }

// LocalIndex returns the ball-local index of a host node, or -1.
func (b *Ball) LocalIndex(hostNode int) int {
	for i, u := range b.Nodes {
		if u == hostNode {
			return i
		}
	}
	return -1
}

// maxCanonicalSize bounds the exact canonicalization search. Balls used
// for inventory enumeration (order-invariance machinery, Claim 2's count N)
// come from bounded-degree families with k <= 3 and small t, so this is
// ample; larger balls return an error rather than a wrong key.
const maxCanonicalSize = 12

// CanonicalKey returns a string that is equal for two balls exactly when
// there is an isomorphism between them that maps center to center and
// preserves the node labels produced by label (e.g. input strings, or ID
// order ranks). It performs an exact search over label/distance-consistent
// permutations; balls larger than an internal bound return an error.
func (b *Ball) CanonicalKey(label func(local int) string) (string, error) {
	n := b.Size()
	if n > maxCanonicalSize {
		return "", fmt.Errorf("graph: ball size %d exceeds canonicalization bound %d", n, maxCanonicalSize)
	}
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		if label != nil {
			labels[i] = label(i)
		}
	}
	// A candidate relabeling assigns canonical positions 0..n-1 to local
	// nodes; position 0 is forced to the center. We enumerate assignments
	// where position p can host any node whose (dist, degree, label) class
	// is still available, and keep the lexicographically smallest encoding.
	best := ""
	perm := make([]int, n)  // canonical position -> local node
	used := make([]bool, n) //
	perm[0] = 0
	used[0] = true
	var rec func(p int)
	encode := func() string {
		var sb strings.Builder
		inv := make([]int, n) // local -> canonical
		for p, l := range perm {
			inv[l] = p
		}
		for p := 0; p < n; p++ {
			l := perm[p]
			fmt.Fprintf(&sb, "%d:%d:%q:", b.Dist[l], b.G.Degree(l), labels[l])
			nb := make([]int, 0, b.G.Degree(l))
			for _, w := range b.G.Neighbors(l) {
				nb = append(nb, inv[w])
			}
			sort.Ints(nb)
			for _, x := range nb {
				fmt.Fprintf(&sb, "%d,", x)
			}
			sb.WriteByte(';')
		}
		return sb.String()
	}
	rec = func(p int) {
		if p == n {
			enc := encode()
			if best == "" || enc < best {
				best = enc
			}
			return
		}
		for l := 0; l < n; l++ {
			if used[l] {
				continue
			}
			used[l] = true
			perm[p] = l
			rec(p + 1)
			used[l] = false
		}
	}
	rec(1)
	return best, nil
}

// IsomorphicTo reports whether two balls admit a center-fixing,
// label-preserving isomorphism (via canonical keys).
func (b *Ball) IsomorphicTo(o *Ball, labelB, labelO func(local int) string) (bool, error) {
	kb, err := b.CanonicalKey(labelB)
	if err != nil {
		return false, err
	}
	ko, err := o.CanonicalKey(labelO)
	if err != nil {
		return false, err
	}
	return kb == ko, nil
}
