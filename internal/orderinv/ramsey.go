package orderinv

import (
	"fmt"
	"sort"

	"rlnc/internal/local"
)

// This file implements the finite Ramsey extraction of Appendix A. Given
// an algorithm A of radius t on the ring family, it searches a finite
// identity pool for a subset U such that, for every ordered ball (shape
// plus identity-order pattern), A's output at the center is the same for
// all assignments of identities from U respecting that order. Appendix A
// secures an infinite such U via Ramsey's theorem; the extractor below
// certifies the property on a finite U, which is all the order-invariant
// simulation A' ever consumes.

// orderedBall is one (shape, permutation) pair — the βᵢ of Appendix A.
type orderedBall struct {
	shape BallShape
	// perm assigns rank perm[i] to ball-local node i.
	perm []int
}

// permutations generates all permutations of 0..n-1.
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// Extraction is the result of a successful Ramsey extraction.
type Extraction struct {
	// U is the extracted identity set, ascending.
	U []int64
	// Outputs records, for each ordered ball index, the constant output.
	Outputs []string
	// Evaluations counts algorithm invocations performed by the search.
	Evaluations int
}

// ErrBudget reports an exhausted extraction search budget.
var ErrBudget = fmt.Errorf("orderinv: extraction budget exhausted")

// defaultExtractBudget caps algorithm evaluations during Extract.
const defaultExtractBudget = 5_000_000

// Extract searches the pool {1..poolSize} for a set U of the wanted size
// such that the outputs of algo on every ordered ball depend only on the
// order pattern when identities come from U. The search is a backtracking
// DFS over ascending candidates with consistency checking: a candidate
// joins U only while every ordered ball, evaluated on every subset
// involving the candidate, agrees with the ball's established output;
// dead branches roll the establishment state back — the finite analogue
// of re-applying Ramsey's theorem per ordered ball in Appendix A.
//
// The search state is built once: one View per ordered ball whose
// identities are rewritten in place, one identity buffer, and per-depth
// rollback rows; outputs are compared against the established strings
// without conversion. The search itself therefore allocates nothing per
// evaluation — only what algo.Output allocates grows with Evaluations.
func Extract(algo local.ViewAlgorithm, inv *Inventory, wantSize, poolSize int) (*Extraction, error) {
	if wantSize < 1 {
		return nil, fmt.Errorf("orderinv: wantSize must be positive")
	}
	var balls []orderedBall
	maxSize := 0
	for _, shape := range inv.Shapes {
		maxSize = max(maxSize, shape.Size)
		for _, perm := range permutations(shape.Size) {
			balls = append(balls, orderedBall{shape: shape, perm: perm})
		}
	}
	nb := len(balls)
	views := make([]local.View, nb)
	for bi, ob := range balls {
		views[bi] = local.View{
			Ball: ob.shape.Ball,
			IDs:  make([]int64, ob.shape.Size),
			X:    make([][]byte, ob.shape.Size),
		}
	}
	established := make([]string, nb)
	establishedSet := make([]bool, nb)
	// Rollback rows, one per DFS depth 0..wantSize-1.
	estBackups := make([]string, wantSize*nb)
	setBackups := make([]bool, wantSize*nb)
	ext := &Extraction{}
	u := make([]int64, 0, wantSize)
	// sorted holds one evaluation's identities in ascending order: a
	// subset of u followed by the candidate. Candidates join u in
	// increasing order and every candidate exceeds max(u), so the
	// concatenation is already sorted. idx walks the subset's indices.
	sorted := make([]int64, maxSize)
	idx := make([]int, maxSize)
	budgetHit := false

	// consistent evaluates candidate c against the current set u, updating
	// establishment state in place (callers snapshot and roll back). The
	// size-(r−1) subsets of u are visited in lexicographic index order.
	consistent := func(c int64) bool {
		for bi, ob := range balls {
			r := ob.shape.Size
			if len(u)+1 < r {
				continue // not enough identities yet
			}
			m := r - 1
			for i := 0; i < m; i++ {
				idx[i] = i
			}
			view := &views[bi]
			for {
				for i := 0; i < m; i++ {
					sorted[i] = u[idx[i]]
				}
				sorted[m] = c
				for i, rank := range ob.perm {
					view.IDs[i] = sorted[rank]
				}
				out := algo.Output(view)
				ext.Evaluations++
				if !establishedSet[bi] {
					established[bi] = string(out)
					establishedSet[bi] = true
				} else if string(out) != established[bi] {
					return false
				}
				// Next subset: bump the rightmost index with room left and
				// restart the ones after it.
				i := m - 1
				for i >= 0 && idx[i] == len(u)-m+i {
					i--
				}
				if i < 0 {
					break
				}
				idx[i]++
				for j := i + 1; j < m; j++ {
					idx[j] = idx[j-1] + 1
				}
			}
		}
		return true
	}

	var dfs func(from int64) bool
	dfs = func(from int64) bool {
		if len(u) >= wantSize {
			return true
		}
		d := len(u) * nb
		estBackup, setBackup := estBackups[d:d+nb], setBackups[d:d+nb]
		for c := from; c <= int64(poolSize); c++ {
			if ext.Evaluations > defaultExtractBudget {
				budgetHit = true
				return false
			}
			copy(estBackup, established)
			copy(setBackup, establishedSet)
			if consistent(c) {
				u = append(u, c)
				if dfs(c + 1) {
					return true
				}
				u = u[:len(u)-1]
			}
			copy(established, estBackup)
			copy(establishedSet, setBackup)
			if budgetHit {
				return false
			}
		}
		return false
	}
	if !dfs(1) {
		if budgetHit {
			return nil, fmt.Errorf("%w: %d evaluations, |U| reached %d of %d",
				ErrBudget, ext.Evaluations, len(u), wantSize)
		}
		return nil, fmt.Errorf("orderinv: pool of %d admits no consistent U of size %d (best effort exhausted after %d evaluations)",
			poolSize, wantSize, ext.Evaluations)
	}
	ext.U = u
	ext.Outputs = established
	return ext, nil
}

// Simulation is the order-invariant algorithm A' of Appendix A: it
// relabels every ball with the |ball| smallest values of U, respecting
// the order of the original identities, and runs A on the relabeled ball.
type Simulation struct {
	Inner local.ViewAlgorithm
	U     []int64
}

// Name implements local.ViewAlgorithm.
func (s *Simulation) Name() string { return fmt.Sprintf("order-invariant(%s)", s.Inner.Name()) }

// Radius implements local.ViewAlgorithm.
func (s *Simulation) Radius() int { return s.Inner.Radius() }

// OrderInvariantAlgorithm marks the simulation as order-invariant.
func (s *Simulation) OrderInvariantAlgorithm() {}

// Output implements local.ViewAlgorithm.
func (s *Simulation) Output(v *local.View) []byte {
	r := len(v.IDs)
	if r > len(s.U) {
		panic(fmt.Sprintf("orderinv: ball of %d nodes exceeds |U| = %d", r, len(s.U)))
	}
	// Rank the original identities and substitute the smallest values of
	// U in the same order ("reassigning identities ... using the
	// |B_G(v,t)| smallest values in U, in the order specified by σ").
	ranks := rankOf(v.IDs)
	sub := make([]int64, r)
	for i, rk := range ranks {
		sub[i] = s.U[rk]
	}
	view := &local.View{Ball: v.Ball, IDs: sub, X: v.X, Y: v.Y, TapeFor: v.TapeFor}
	return s.Inner.Output(view)
}

func rankOf(idsIn []int64) []int {
	idx := make([]int, len(idsIn))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return idsIn[idx[a]] < idsIn[idx[b]] })
	rank := make([]int, len(idsIn))
	for r, i := range idx {
		rank[i] = r
	}
	return rank
}
