//go:build !race

package graph

import "testing"

// TestBallAroundAllocsConstant pins the allocation profile of ball
// extraction: a fixed number of allocations per ball, the same for a
// two-node ball as for a ball of hundreds of nodes — the BFS runs on
// pooled scratch and the rows carve from shared slabs. Skipped under
// -race, whose sync.Pool drops items at random.
func TestBallAroundAllocsConstant(t *testing.T) {
	const maxAllocs = 5
	cases := []struct {
		name string
		g    *Graph
		r    int
	}{
		{"path-r1", Path(2), 1},
		{"cycle-r1", Cycle(64), 1},
		{"grid-r3", Grid(12, 12), 3},
		{"torus-r6", Torus(20, 20), 6},
		{"tree-r3", CompleteTree(4, 4), 3},
	}
	var first float64
	for i, c := range cases {
		c.g.BallAround(0, c.r) // warm the scratch pool
		got := testing.AllocsPerRun(100, func() { c.g.BallAround(0, c.r) })
		if got > maxAllocs {
			t.Errorf("%s: BallAround allocates %.0f/op, want <= %d", c.name, got, maxAllocs)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("%s: BallAround allocates %.0f/op, %s allocates %.0f/op; want the count independent of ball size",
				c.name, got, cases[0].name, first)
		}
		if got := testing.AllocsPerRun(100, func() { c.g.NodesWithin(0, c.r) }); got > 1 {
			t.Errorf("%s: NodesWithin allocates %.0f/op, want <= 1", c.name, got)
		}
	}
}
