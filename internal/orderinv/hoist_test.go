package orderinv

import (
	"slices"
	"testing"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// centerModAlgo outputs the center identity modulo m from the static
// color table, so its Output allocates nothing.
type centerModAlgo struct{ m int64 }

func (a centerModAlgo) Name() string { return "center-mod" }
func (a centerModAlgo) Radius() int  { return 1 }
func (a centerModAlgo) Output(v *local.View) []byte {
	return lang.EncodeColor(int(v.IDs[0] % a.m))
}

// sumModAlgo outputs the identity sum of the ball modulo m — hard to
// make order-invariant, so small pools run out.
type sumModAlgo struct{ m int64 }

func (a sumModAlgo) Name() string { return "sum-mod" }
func (a sumModAlgo) Radius() int  { return 1 }
func (a sumModAlgo) Output(v *local.View) []byte {
	s := int64(0)
	for _, id := range v.IDs {
		s += id
	}
	return lang.EncodeColor(int(s % a.m))
}

// TestExtractMatchesReference is the differential of the hoisted search
// against the per-evaluation reference: the same U, outputs and
// evaluation count on success, the same error otherwise, across radius-1
// and radius-2 inventories and order-sensitive, order-invariant and
// unextractable algorithms.
func TestExtractMatchesReference(t *testing.T) {
	inv1, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := RingInventory(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo           local.ViewAlgorithm
		inv            *Inventory
		want, poolSize int
	}{
		{idParityAlgo{t: 1}, inv1, 8, 120},
		{rankAlgo{t: 1}, inv1, 8, 40},
		{centerModAlgo{m: 3}, inv1, 6, 60},
		{centerModAlgo{m: 2}, inv1, 1, 5},
		{sumModAlgo{m: 4}, inv1, 6, 14},
		{idParityAlgo{t: 1}, inv1, 10, 6},
		{idParityAlgo{t: 2}, inv2, 6, 40},
		{centerModAlgo{m: 3}, inv2, 6, 30},
		{rankAlgo{t: 2}, inv2, 5, 10},
	}
	failures := 0
	for _, c := range cases {
		got, gotErr := Extract(c.algo, c.inv, c.want, c.poolSize)
		want, wantErr := refExtract(c.algo, c.inv, c.want, c.poolSize)
		name := c.algo.Name()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s |U|=%d pool=%d: error %v, reference %v", name, c.want, c.poolSize, gotErr, wantErr)
		}
		if wantErr != nil {
			failures++
			continue
		}
		if !slices.Equal(got.U, want.U) || !slices.Equal(got.Outputs, want.Outputs) || got.Evaluations != want.Evaluations {
			t.Errorf("%s |U|=%d pool=%d: got U=%v outputs=%q evaluations=%d, reference U=%v outputs=%q evaluations=%d",
				name, c.want, c.poolSize, got.U, got.Outputs, got.Evaluations, want.U, want.Outputs, want.Evaluations)
		}
	}
	if failures == 0 || failures == len(cases) {
		t.Errorf("%d of %d cases failed to extract; want both outcomes covered", failures, len(cases))
	}
}

// TestRingSearchMatchesPerAlgorithmSearch is the differential of the
// shared ring search against the per-call reference: for every
// order-invariant radius-1 ring algorithm with q ∈ {2, 3}, one search
// shared across the whole enumeration finds the same first
// counterexample as a fresh per-algorithm search, and so does
// FindRingCounterexample.
func TestRingSearchMatchesPerAlgorithmSearch(t *testing.T) {
	for _, q := range []int{2, 3} {
		rs := newRingSearch(q, 8)
		for _, algo := range EnumerateRingAlgorithms(q) {
			want, wantOK := refFindRingCounterexample(algo, q, 8)
			got, gotOK := rs.find(algo)
			if gotOK != wantOK || (wantOK && *got != *want) {
				t.Fatalf("%s: shared search %+v/%v, reference %+v/%v", algo.Name(), got, gotOK, want, wantOK)
			}
			single, singleOK := FindRingCounterexample(algo, q, 8)
			if singleOK != wantOK || (wantOK && *single != *want) {
				t.Fatalf("%s: FindRingCounterexample %+v/%v, reference %+v/%v", algo.Name(), single, singleOK, want, wantOK)
			}
		}
	}
	// Center identity mod 3 properly colors every identity assignment of
	// C_3, so a search capped at n = 3 must come back empty-handed.
	alternating := local.ViewFunc{AlgoName: "never-fails-on-C3", R: 1, F: func(v *local.View) []byte {
		return lang.EncodeColor(int(v.IDs[0] % 3))
	}}
	if _, ok := refFindRingCounterexample(alternating, 3, 3); ok {
		t.Fatalf("%s: the reference found a counterexample on C_3", alternating.Name())
	}
	if ce, ok := newRingSearch(3, 3).find(alternating); ok {
		t.Errorf("%s: shared search found %+v on C_3, reference none", alternating.Name(), ce)
	}
}
