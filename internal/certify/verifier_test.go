package certify

import (
	"bytes"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// refVerdicts is VerifyAll's per-node check as it was before the
// verifier kept its state across assignments: a fresh one-shot
// DecisionView and certificate row per node. It is the reference the
// cached verifier must match node for node.
func refVerdicts(di *lang.DecisionInstance, s Scheme, certs Certificates) []bool {
	n := di.G.N()
	verdicts := make([]bool, n)
	local.ParallelFor(n, func(v int) {
		view := local.DecisionView(di, v, s.Radius(), nil)
		ballCerts := make([][]byte, view.Ball.Size())
		for i, u := range view.Ball.Nodes {
			ballCerts[i] = certs[u]
		}
		verdicts[v] = s.Verify(view, ballCerts)
	})
	return verdicts
}

// refSoundnessSearch is SoundnessSearch before the hoist: a fresh
// assignment per attempt, checked through the one-shot reference.
func refSoundnessSearch(di *lang.DecisionInstance, s Scheme, attempts, maxLen int, seed uint64) Certificates {
	all := func(certs Certificates) bool {
		for _, ok := range refVerdicts(di, s, certs) {
			if !ok {
				return false
			}
		}
		return true
	}
	if certs, err := s.Prove(di); err == nil && len(certs) == di.G.N() && all(certs) {
		return certs
	}
	src := localrand.NewSource(seed)
	n := di.G.N()
	for a := 0; a < attempts; a++ {
		certs := make(Certificates, n)
		for v := 0; v < n; v++ {
			c := make([]byte, src.Intn(maxLen+1))
			for i := range c {
				c[i] = byte(src.Intn(256))
			}
			certs[v] = c
		}
		if all(certs) {
			return certs
		}
	}
	return nil
}

// certCase is one (scheme, instance) pair of the differential.
type certCase struct {
	name string
	s    Scheme
	di   *lang.DecisionInstance
}

func certCases(t *testing.T) []certCase {
	var cases []certCase
	for _, g := range []*graph.Graph{graph.Path(12), graph.Cycle(9), graph.Star(7), graph.CompleteTree(2, 3), graph.Grid(4, 5)} {
		for _, sel := range [][]int{{}, {0}, {g.N() / 2}, {0, g.N() - 1}} {
			cases = append(cases, certCase{"amos", AMOSScheme{}, selDI(t, g, sel...)})
		}
		in := instanceOn(t, g)
		y, err := BuildBFSTreeOutputs(in, g.N()/3)
		if err != nil {
			t.Fatal(err)
		}
		tree := &lang.DecisionInstance{G: g, X: in.X, Y: y, ID: in.ID}
		cases = append(cases, certCase{"tree", SpanningTreeScheme{}, tree})
		// A second root breaks the language but keeps every output
		// decodable.
		y2 := append([][]byte(nil), y...)
		y2[g.N()-1] = RootMark
		cases = append(cases, certCase{"tree-two-roots", SpanningTreeScheme{}, &lang.DecisionInstance{G: g, X: in.X, Y: y2, ID: in.ID}})
	}
	return cases
}

// instanceOn is a consecutive-identity construction instance on g.
func instanceOn(t *testing.T, g *graph.Graph) *lang.Instance {
	t.Helper()
	di := selDI(t, g)
	return &lang.Instance{G: g, X: di.X, ID: di.ID}
}

// assignments returns the certificate assignments the differential
// checks on one case: the prover's (when it has one), single-node
// mutations of it, and random assignments mixing well-formed
// certificates over a tiny value range (so verdicts split) with
// malformed ones.
func assignments(c certCase, src *localrand.Source) []Certificates {
	n := c.di.G.N()
	var out []Certificates
	prover, err := c.s.Prove(c.di)
	if err != nil {
		// Out of the language: start from a well-formed constant
		// assignment instead.
		prover = make(Certificates, n)
		for v := range prover {
			prover[v] = encodeRootDepth(c.di.ID[0], 1)
			if _, ok := c.s.(AMOSScheme); ok {
				prover[v] = encodeID(c.di.ID[0])
			}
		}
	}
	out = append(out, prover)
	for v := 0; v < n; v++ {
		m := append(Certificates(nil), prover...)
		m[v] = append([]byte(nil), prover[v]...)
		m[v][len(m[v])-1] ^= 1
		out = append(out, m)
	}
	for a := 0; a < 40; a++ {
		r := make(Certificates, n)
		for v := range r {
			switch src.Intn(8) {
			case 0:
				r[v] = []byte{byte(src.Intn(256))}
			case 1, 2, 3:
				r[v] = encodeID(int64(src.Intn(3)))
			default:
				r[v] = encodeRootDepth(int64(src.Intn(2)), uint32(src.Intn(4)))
			}
		}
		out = append(out, r)
	}
	return out
}

// TestVerifierMatchesPerNodeViews is the differential of the cached
// verifier against one-shot per-node views: on AMOS and spanning-tree
// instances in and out of the language, for prover, mutated and random
// certificates, every node's verdict and the conjunction VerifyAll
// reports must match — with one verifier reused across all of a case's
// assignments, as SoundnessSearch uses it.
func TestVerifierMatchesPerNodeViews(t *testing.T) {
	src := localrand.NewSource(16)
	accepted, rejected := 0, 0
	for _, c := range certCases(t) {
		vf := newVerifier(c.di, c.s)
		for ai, certs := range assignments(c, src) {
			want := refVerdicts(c.di, c.s, certs)
			wantAll := true
			for _, ok := range want {
				wantAll = wantAll && ok
			}
			if got := vf.accepts(certs); got != wantAll {
				t.Fatalf("%s n=%d assignment %d: cached verifier accepts=%v, reference %v", c.name, c.di.G.N(), ai, got, wantAll)
			}
			for v, ok := range want {
				if vf.verdict[v] != ok {
					t.Fatalf("%s n=%d assignment %d: node %d verdict %v, reference %v", c.name, c.di.G.N(), ai, v, vf.verdict[v], ok)
				}
			}
			if got := VerifyAll(c.di, c.s, certs); got != wantAll {
				t.Fatalf("%s n=%d assignment %d: VerifyAll=%v, reference %v", c.name, c.di.G.N(), ai, got, wantAll)
			}
			if wantAll {
				accepted++
			} else {
				rejected++
			}
		}
	}
	// Both outcomes must occur, or the differential compares nothing.
	if accepted == 0 || rejected == 0 {
		t.Errorf("%d assignments accepted, %d rejected; want both outcomes", accepted, rejected)
	}
}

// parityScheme accepts a node whose certificate is empty or starts with
// an even byte — weak enough that random assignments fool it, so the
// search's hit path (and the copy it returns) is exercised.
type parityScheme struct{}

func (parityScheme) Name() string                                       { return "parity" }
func (parityScheme) Radius() int                                        { return 1 }
func (parityScheme) Prove(*lang.DecisionInstance) (Certificates, error) { return nil, ErrNotInLanguage }
func (parityScheme) Verify(v *local.View, certs [][]byte) bool {
	return len(certs[0]) == 0 || certs[0][0]%2 == 0
}

// TestSoundnessSearchMatchesReference requires the hoisted search to
// return exactly what the per-attempt reference returns — nil, the
// prover's certificates, or the same fooling assignment byte for byte.
func TestSoundnessSearchMatchesReference(t *testing.T) {
	g := graph.Path(20)
	in := instanceOn(t, g)
	y, err := BuildBFSTreeOutputs(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	y[19] = RootMark
	cases := []certCase{
		{"amos-two", AMOSScheme{}, selDI(t, g, 0, 19)},
		{"amos-one", AMOSScheme{}, selDI(t, g, 7)},
		{"tree-two-roots", SpanningTreeScheme{}, &lang.DecisionInstance{G: g, X: in.X, Y: y, ID: in.ID}},
		{"parity", parityScheme{}, selDI(t, graph.Cycle(4))},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			got, err := SoundnessSearch(c.di, c.s, 200, 10, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := refSoundnessSearch(c.di, c.s, 200, 10, seed)
			if (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("%s seed %d: got %v, reference %v", c.name, seed, got, want)
			}
			for v := range want {
				if !bytes.Equal(got[v], want[v]) {
					t.Fatalf("%s seed %d: node %d certificate %x, reference %x", c.name, seed, v, got[v], want[v])
				}
			}
		}
	}
}
