package orderinv

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// This file makes the premise of Claim 2 exact for the smallest
// interesting case: radius-1 algorithms on rings. The proof of Claim 2
// observes that under the F_k promise there are finitely many
// (deterministic) order-invariant algorithms — N ordered balls, hence
// q^N algorithms with palette q — and that, if no deterministic
// algorithm exists, EVERY one of them fails on some instance. Here the
// whole space (3^6 = 729 algorithms for q = 3) is enumerated and a
// failing instance is exhibited for each, turning the counting argument
// into an exhaustive computation.

// ringPatternCount is the number of order patterns of a radius-1 ring
// view: the ball is always the 3-node path (center, successor,
// predecessor) — for every cycle length, including C_3, whose
// frontier-frontier edge is excluded — so patterns are the 3! orderings.
const ringPatternCount = 6

// ringPatternIndex maps the (center, successor, predecessor) identities
// to a pattern index in 0..5 via the rank vector, in lexicographic order
// of rank triples.
func ringPatternIndex(center, succ, pred int64) int {
	rank := func(x int64) int {
		r := 0
		if center < x {
			r++
		}
		if succ < x {
			r++
		}
		if pred < x {
			r++
		}
		return r
	}
	rc, rs := rank(center), rank(succ)
	// The triple (rc, rs, rp) is a permutation of (0,1,2); index it by
	// rc*2 + (1 if rs is the larger of the remaining two).
	idx := rc * 2
	rp := 3 - rc - rs
	if rs > rp {
		idx++
	}
	return idx
}

// RingTableAlgorithm is one order-invariant radius-1 ring algorithm: a
// lookup table from the 6 order patterns to colors in [0, Q).
type RingTableAlgorithm struct {
	Table [ringPatternCount]int
	Q     int
}

// Name implements local.ViewAlgorithm.
func (a RingTableAlgorithm) Name() string {
	return fmt.Sprintf("ring-table%v(q=%d)", a.Table, a.Q)
}

// Radius implements local.ViewAlgorithm.
func (a RingTableAlgorithm) Radius() int { return 1 }

// OrderInvariantAlgorithm marks the algorithm order-invariant (the table
// is indexed by order pattern only).
func (a RingTableAlgorithm) OrderInvariantAlgorithm() {}

// Output implements local.ViewAlgorithm. The view must be a ring view:
// degree-2 center with ports (successor, predecessor).
func (a RingTableAlgorithm) Output(v *local.View) []byte {
	if v.Degree() != 2 {
		panic("orderinv: ring table algorithm needs a cycle")
	}
	nb := v.Ball.G.Neighbors(0)
	succ := v.IDs[nb[0]]
	pred := v.IDs[nb[1]]
	return lang.EncodeColor(a.Table[ringPatternIndex(v.IDs[0], succ, pred)])
}

// EnumerateRingAlgorithms returns all q^6 order-invariant radius-1 ring
// algorithms with palette q — the full space the Claim 2 argument counts.
func EnumerateRingAlgorithms(q int) []RingTableAlgorithm {
	total := 1
	for i := 0; i < ringPatternCount; i++ {
		total *= q
	}
	out := make([]RingTableAlgorithm, 0, total)
	for code := 0; code < total; code++ {
		var table [ringPatternCount]int
		c := code
		for i := 0; i < ringPatternCount; i++ {
			table[i] = c % q
			c /= q
		}
		out = append(out, RingTableAlgorithm{Table: table, Q: q})
	}
	return out
}

// Counterexample is a failing instance for one algorithm.
type Counterexample struct {
	N    int
	Seed uint64
}

// FindRingCounterexample searches consecutive-identity and permuted
// cycles of length 3..maxN for an instance the algorithm fails to
// properly q-color, returning the first hit.
func FindRingCounterexample(algo local.ViewAlgorithm, q, maxN int) (*Counterexample, bool) {
	return newRingSearch(q, maxN).find(algo)
}

// ringSearch is the instance set FindRingCounterexample walks — per
// cycle length, one engine over the cycle's plan, the empty input column
// and the identity assignments to try — built lazily, the first time an
// algorithm survives to that length, and shared by every algorithm
// searched through it.
type ringSearch struct {
	l     *lang.LCL
	maxN  int
	cases []*ringCase // cases[n-3], nil until first needed
}

// ringCase is one cycle length's share of a ringSearch. ins[0] carries
// the consecutive identities and ins[s] the permutation of seed s, so an
// instance's index is the seed a counterexample reports.
type ringCase struct {
	eng *local.Engine
	cfg lang.Config
	ins [7]lang.Instance
}

func newRingSearch(q, maxN int) *ringSearch {
	return &ringSearch{l: lang.ProperColoring(q), maxN: maxN, cases: make([]*ringCase, max(0, maxN-2))}
}

// caseFor returns cycle length n's case, building it on first use.
func (rs *ringSearch) caseFor(n int) *ringCase {
	if c := rs.cases[n-3]; c != nil {
		return c
	}
	g := graph.Cycle(n)
	x := lang.EmptyInputs(n)
	c := &ringCase{eng: local.MustPlan(g).NewEngine(), cfg: lang.Config{G: g, X: x}}
	c.ins[0] = lang.Instance{G: g, X: x, ID: ids.Consecutive(n)}
	for seed := 1; seed < len(c.ins); seed++ {
		c.ins[seed] = lang.Instance{G: g, X: x, ID: ids.RandomPerm(n, uint64(seed))}
	}
	rs.cases[n-3] = c
	return c
}

// find returns algo's first failing instance, in FindRingCounterexample's
// order: cycle lengths ascending, consecutive identities before the
// permutations.
func (rs *ringSearch) find(algo local.ViewAlgorithm) (*Counterexample, bool) {
	for n := 3; n <= rs.maxN; n++ {
		c := rs.caseFor(n)
		for seed := range c.ins {
			c.cfg.Y = c.eng.RunView(&c.ins[seed], algo, nil)
			ok, err := rs.l.Contains(&c.cfg)
			c.cfg.Y = nil
			if err == nil && !ok {
				return &Counterexample{N: n, Seed: uint64(seed)}, true
			}
		}
	}
	return nil, false
}

// Claim2Report summarizes the exhaustive verification.
type Claim2Report struct {
	Palette    int
	Algorithms int
	// Failures counts algorithms with a counterexample (Claim 2 requires
	// this to equal Algorithms).
	Failures int
	// BySize histograms the minimal counterexample cycle length found.
	BySize map[int]int
}

// VerifyClaim2Radius1 enumerates every order-invariant radius-1 ring
// algorithm with palette q and finds a failing instance for each. The
// paper's Section 4 argument predicts universal failure: on a
// consecutive-identity cycle all interior views share one order pattern,
// so two adjacent interior nodes receive equal colors.
func VerifyClaim2Radius1(q, maxN int) (*Claim2Report, error) {
	rep := &Claim2Report{Palette: q, BySize: make(map[int]int)}
	rs := newRingSearch(q, maxN)
	for _, algo := range EnumerateRingAlgorithms(q) {
		rep.Algorithms++
		ce, found := rs.find(algo)
		if !found {
			return nil, fmt.Errorf("orderinv: algorithm %s survives all cycles up to %d — Claim 2 premise violated",
				algo.Name(), maxN)
		}
		rep.Failures++
		rep.BySize[ce.N]++
	}
	return rep, nil
}
