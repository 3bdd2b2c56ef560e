package exp

import (
	"slices"
	"strings"
	"testing"

	"rlnc/internal/local"
	"rlnc/internal/orderinv"
)

// TestE13ExtractionsPinned pins orderinv.Extract on E13's three
// identity-sensitive algorithms to the values the per-evaluation search
// produced before its state was hoisted out of the loop: the extracted
// U, the constant output of every ordered ball, and the evaluation count
// E13b reports. Radius 1 is E13's own setting; the radius-2 rows cover
// the larger inventory.
func TestE13ExtractionsPinned(t *testing.T) {
	inv1, err := orderinv.RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := orderinv.RingInventory(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo        local.ViewAlgorithm
		inv         *orderinv.Inventory
		size, pool  int
		u           []int64
		output      string // every ordered ball's constant output
		balls       int
		evaluations int
	}{
		{maxParity{}, inv1, 8, 120, []int64{1, 2, 3, 5, 7, 9, 11, 13}, "\x01", 6, 341},
		{maxParity{}, inv1, 5, 40, []int64{1, 2, 3, 5, 7}, "\x01", 6, 62},
		{maxParity{}, inv2, 6, 60, []int64{1, 2, 3, 5, 7, 9}, "\x01", 150, 1203},
		{centerMod3{}, inv1, 8, 120, []int64{1, 4, 7, 10, 13, 16, 19, 22}, "\x01", 6, 45107},
		{centerMod3{}, inv1, 5, 40, []int64{1, 4, 7, 10, 13}, "\x01", 6, 5257},
		{centerMod3{}, inv2, 6, 60, []int64{1, 4, 7, 10, 13, 16}, "\x01", 150, 12679},
		{thresholdAlgo{}, inv1, 8, 120, []int64{1, 2, 3, 4, 5, 6, 7, 8}, "\x00", 6, 336},
		{thresholdAlgo{}, inv1, 5, 40, []int64{1, 2, 3, 4, 5}, "\x00", 6, 60},
		{thresholdAlgo{}, inv2, 6, 60, []int64{1, 2, 3, 4, 5, 6}, "\x00", 150, 1200},
	} {
		ext, err := orderinv.Extract(c.algo, c.inv, c.size, c.pool)
		if err != nil {
			t.Fatalf("%s |U|=%d pool=%d: %v", c.algo.Name(), c.size, c.pool, err)
		}
		wantOut := strings.Split(strings.Repeat(c.output, c.balls), "")
		if !slices.Equal(ext.U, c.u) || !slices.Equal(ext.Outputs, wantOut) || ext.Evaluations != c.evaluations {
			t.Errorf("%s |U|=%d pool=%d: U=%v outputs=%q evaluations=%d; want U=%v, %d × %q, %d evaluations",
				c.algo.Name(), c.size, c.pool, ext.U, ext.Outputs, ext.Evaluations, c.u, c.balls, c.output, c.evaluations)
		}
	}
}
