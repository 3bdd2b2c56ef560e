//go:build !race

package orderinv

import "testing"

// TestExtractAllocsFlatInEvaluations pins the hoisted search's
// allocations as independent of its length: with an algorithm whose
// Output allocates nothing, a search of ~45k evaluations allocates no
// more than one of ~5k. The per-evaluation View, identity slice and
// output string — and the per-candidate rollback copies — are gone.
// Skipped under -race, whose instrumentation changes allocation counts.
func TestExtractAllocsFlatInEvaluations(t *testing.T) {
	inv, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	algo := centerModAlgo{m: 3}
	run := func(want, pool int) (allocs float64, evals int) {
		allocs = testing.AllocsPerRun(5, func() {
			ext, err := Extract(algo, inv, want, pool)
			if err != nil {
				t.Fatal(err)
			}
			evals = ext.Evaluations
		})
		return allocs, evals
	}
	smallAllocs, smallEvals := run(5, 40)
	bigAllocs, bigEvals := run(8, 120)
	if bigEvals < 5*smallEvals {
		t.Fatalf("evaluations %d vs %d: the searches differ too little to show growth", bigEvals, smallEvals)
	}
	if bigAllocs > smallAllocs {
		t.Errorf("Extract allocates %.0f over %d evaluations vs %.0f over %d; want no growth",
			bigAllocs, bigEvals, smallAllocs, smallEvals)
	}
	t.Logf("%.0f allocs over %d evaluations, %.0f over %d", smallAllocs, smallEvals, bigAllocs, bigEvals)
}
