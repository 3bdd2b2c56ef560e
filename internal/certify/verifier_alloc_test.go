//go:build !race

package certify

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
)

// TestVerifierWarmPassAllocFree pins a warm verifier pass at zero
// allocations for both schemes: the engine's view skeletons, the
// per-node certificate rows and the verdict row are all reused, so
// SoundnessSearch's attempts cost only the scheme's own Verify work.
// Skipped under -race, whose instrumentation changes allocation counts.
func TestVerifierWarmPassAllocFree(t *testing.T) {
	g := graph.Grid(4, 5)
	amos := selDI(t, g, 3)
	in := &lang.Instance{G: g, X: amos.X, ID: amos.ID}
	y, err := BuildBFSTreeOutputs(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := &lang.DecisionInstance{G: g, X: in.X, Y: y, ID: in.ID}
	for _, c := range []certCase{{"amos", AMOSScheme{}, amos}, {"tree", SpanningTreeScheme{}, tree}} {
		certs, err := c.s.Prove(c.di)
		if err != nil {
			t.Fatal(err)
		}
		vf := newVerifier(c.di, c.s)
		if !vf.accepts(certs) {
			t.Fatalf("%s: prover certificates rejected", c.name)
		}
		if got := testing.AllocsPerRun(50, func() { vf.accepts(certs) }); got != 0 {
			t.Errorf("%s: warm verifier pass allocates %.0f/op; want 0", c.name, got)
		}
	}
}
