package graph

// BFSFrom computes hop distances from source v; unreachable nodes get -1.
func (g *Graph) BFSFrom(v int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(v))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v, or -1 if disconnected.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSFrom(u)[v]
}

// Connected reports whether the graph is connected (the LOCAL model of the
// paper assumes connected networks; experiments on disjoint unions use
// ComponentCount explicitly).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	return g.ComponentCount() == 1
}

// Components returns, for each node, a component label in 0..k-1, plus the
// number of components k. Labels follow discovery order from node 0.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	k := 0
	for v := 0; v < g.N(); v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = k
		queue := []int32{int32(v)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[u] {
				if comp[w] == -1 {
					comp[w] = k
					queue = append(queue, w)
				}
			}
		}
		k++
	}
	return comp, k
}

// ComponentCount returns the number of connected components.
func (g *Graph) ComponentCount() int {
	_, k := g.Components()
	return k
}

// Eccentricity returns the maximum distance from v to any reachable node.
func (g *Graph) Eccentricity(v int) int {
	ecc := 0
	for _, d := range g.BFSFrom(v) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter by BFS from every node. For
// disconnected graphs it returns the largest finite eccentricity.
// O(n·(n+m)); intended for the moderate sizes used in experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := g.Eccentricity(v); e > diam {
			diam = e
		}
	}
	return diam
}

// NodesWithin returns all nodes at distance <= t from v, in BFS order, along
// with their distances. Like BallAround it costs O(ball), not O(n).
func (g *Graph) NodesWithin(v, t int) ([]int, []int) {
	sc := ballPool.Get().(*ballScratch)
	sc.within(g, v, t)
	s := len(sc.nodes)
	out := make([]int, 2*s)
	nodes, dists := out[:s:s], out[s:]
	copy(nodes, sc.nodes)
	copy(dists, sc.dist)
	sc.release()
	return nodes, dists
}

// ScatteredSet greedily selects nodes pairwise at distance >= sep,
// returning at most want of them (want <= 0 means as many as possible).
// The proof of Theorem 1 needs a set S of µ vertices pairwise at distance
// at least 2(t+t′); such a set exists whenever the diameter is at least
// 2µ(t+t′) — see the D = 2µ(t+t′) bound in §3. The greedy sweep below
// walks a BFS order from an endpoint of a diameter path, which realizes
// that existence proof constructively on every graph.
func (g *Graph) ScatteredSet(sep, want int) []int {
	if g.N() == 0 {
		return nil
	}
	// Start from a far-out node (endpoint of an approximate diameter path)
	// so that long graphs yield many scattered nodes.
	far := 0
	d0 := g.BFSFrom(0)
	for v, d := range d0 {
		if d > d0[far] {
			far = v
		}
	}
	order := bfsOrder(g, far)
	var chosen []int
	// blocked[v] true when v is within sep-1 of a chosen node.
	blocked := make([]bool, g.N())
	for _, v := range order {
		if blocked[v] {
			continue
		}
		chosen = append(chosen, v)
		if want > 0 && len(chosen) >= want {
			break
		}
		nodes, _ := g.NodesWithin(v, sep-1)
		for _, u := range nodes {
			blocked[u] = true
		}
	}
	return chosen
}

// bfsOrder returns all nodes reachable from v in BFS discovery order.
func bfsOrder(g *Graph, v int) []int {
	seen := make([]bool, g.N())
	seen[v] = true
	order := []int{v}
	for i := 0; i < len(order); i++ {
		for _, w := range g.adj[order[i]] {
			if !seen[w] {
				seen[w] = true
				order = append(order, int(w))
			}
		}
	}
	return order
}

// PairwiseDistAtLeast verifies that every pair of the given nodes is at
// distance >= sep, returning the first violating pair if any.
func (g *Graph) PairwiseDistAtLeast(nodes []int, sep int) (ok bool, u, v int) {
	for i := 0; i < len(nodes); i++ {
		d := g.BFSFrom(nodes[i])
		for j := i + 1; j < len(nodes); j++ {
			if d[nodes[j]] != -1 && d[nodes[j]] < sep {
				return false, nodes[i], nodes[j]
			}
		}
	}
	return true, -1, -1
}
