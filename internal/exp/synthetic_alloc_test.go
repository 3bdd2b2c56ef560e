//go:build !race

package exp

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestNoisyVerdictAllocFree pins NoisyLCLDecider.Verdict on a warm
// cached view at zero allocations: the bad-ball predicate reads the
// view's own labeled-ball reinterpretation rather than a fresh one, and
// the rejecting coin comes from the view's tape. Every ball of the
// monochromatic cycle is bad, so each verdict takes the tape path.
// Skipped under -race, whose instrumentation changes allocation counts.
func TestNoisyVerdictAllocFree(t *testing.T) {
	g := graph.Cycle(16)
	n := g.N()
	y := make([][]byte, n)
	for v := range y {
		y[v] = lang.EncodeColor(0)
	}
	di := &lang.DecisionInstance{G: g, X: lang.EmptyInputs(n), Y: y, ID: ids.Consecutive(n)}
	d := &NoisyLCLDecider{L: lang.ProperColoring(3), RejectProb: 0.5}
	eng := local.MustPlan(g).NewEngine()
	draw := localrand.NewTapeSpace(5).Draw(0)
	visit := func(fn func(view *local.View)) {
		eng.ForEachDecisionView(di, d.Radius(), &draw, func(_ int, view *local.View) { fn(view) })
	}
	visit(func(view *local.View) { d.Verdict(view) }) // warm the view cache
	checked := 0
	visit(func(view *local.View) {
		if got := testing.AllocsPerRun(20, func() { d.Verdict(view) }); got != 0 {
			t.Fatalf("Verdict on a warm view allocates %.0f/op; want 0", got)
		}
		checked++
	})
	if checked != n {
		t.Fatalf("visited %d views, want %d", checked, n)
	}
}
