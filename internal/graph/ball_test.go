package graph

import (
	"fmt"
	"slices"
	"testing"
)

// refNodesWithin is the map-based BFS that NodesWithin replaced, kept as
// the reference of the ball differential below.
func refNodesWithin(g *Graph, v, t int) ([]int, []int) {
	var nodes, dists []int
	dist := map[int]int{v: 0}
	queue := []int{v}
	nodes = append(nodes, v)
	dists = append(dists, 0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == t {
			continue
		}
		for _, w := range g.adj[u] {
			if _, seen := dist[int(w)]; !seen {
				dist[int(w)] = dist[u] + 1
				nodes = append(nodes, int(w))
				dists = append(dists, dist[u]+1)
				queue = append(queue, int(w))
			}
		}
	}
	return nodes, dists
}

// refBallAround is the map-based extraction that BallAround replaced.
func refBallAround(g *Graph, v, t int) *Ball {
	nodes, dists := refNodesWithin(g, v, t)
	local := make(map[int]int, len(nodes))
	for i, u := range nodes {
		local[u] = i
	}
	adj := make([][]int32, len(nodes))
	ports := make([][]int, len(nodes))
	m := 0
	for i, u := range nodes {
		for p, w := range g.adj[u] {
			j, in := local[int(w)]
			if !in {
				continue
			}
			if dists[i] == t && dists[j] == t {
				continue
			}
			adj[i] = append(adj[i], int32(j))
			ports[i] = append(ports[i], p)
			m++
		}
	}
	return &Ball{
		G:      &Graph{adj: adj, m: m / 2},
		Nodes:  nodes,
		Dist:   dists,
		Ports:  ports,
		Radius: t,
	}
}

// ballFamilies are the host graphs of the ball differential.
func ballFamilies(t *testing.T) map[string]*Graph {
	t.Helper()
	rr, err := RandomRegular(48, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"cycle":          Cycle(24),
		"grid":           Grid(5, 6),
		"tree":           CompleteTree(3, 3),
		"star":           Star(9),
		"random-regular": rr,
	}
}

// TestBallMatchesMapReference is the ball differential: for every center
// of every family at radii 0–3, the pooled dense-index extraction must
// reproduce the map-based reference exactly — BFS order, distances,
// adjacency in port order, host ports, edge count and radius — and
// NodesWithin must match its reference the same way.
func TestBallMatchesMapReference(t *testing.T) {
	for name, g := range ballFamilies(t) {
		for r := 0; r <= 3; r++ {
			for v := 0; v < g.N(); v++ {
				where := fmt.Sprintf("%s r=%d v=%d", name, r, v)
				wantN, wantD := refNodesWithin(g, v, r)
				gotN, gotD := g.NodesWithin(v, r)
				if !slices.Equal(gotN, wantN) || !slices.Equal(gotD, wantD) {
					t.Fatalf("%s: NodesWithin = %v %v, reference %v %v", where, gotN, gotD, wantN, wantD)
				}
				want := refBallAround(g, v, r)
				got := g.BallAround(v, r)
				if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Dist, want.Dist) {
					t.Fatalf("%s: nodes/dist %v %v, reference %v %v", where, got.Nodes, got.Dist, want.Nodes, want.Dist)
				}
				if got.G.N() != want.G.N() || got.G.M() != want.G.M() || got.Radius != want.Radius {
					t.Fatalf("%s: n=%d m=%d radius=%d, reference n=%d m=%d radius=%d",
						where, got.G.N(), got.G.M(), got.Radius, want.G.N(), want.G.M(), want.Radius)
				}
				for i := 0; i < want.G.N(); i++ {
					if !slices.Equal(got.G.Neighbors(i), want.G.Neighbors(i)) {
						t.Fatalf("%s local %d: adjacency %v, reference %v", where, i, got.G.Neighbors(i), want.G.Neighbors(i))
					}
					if !slices.Equal(got.Ports[i], want.Ports[i]) {
						t.Fatalf("%s local %d: ports %v, reference %v", where, i, got.Ports[i], want.Ports[i])
					}
				}
			}
		}
	}
}
