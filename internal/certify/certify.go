// Package certify implements local verification with certificates — the
// classes NLD and BPNLD that §5 of the paper singles out as candidates
// for extending Theorem 1 ("the classes of languages for which one can
// certify the membership ... thanks to local certificates. They are to LD
// and BPLD, respectively, what NP is to P").
//
// A proof-labeling scheme for a language L equips every node with a
// certificate string; a constant-radius verifier checks certificates
// locally such that
//
//   - completeness: for every configuration in L some certificate
//     assignment makes all nodes accept, and
//   - soundness: for configurations outside L, every certificate
//     assignment makes at least one node reject.
//
// The package provides the scheme interface, a checker that tests
// completeness directly and soundness empirically (adversarial
// certificate search), and two concrete schemes:
//
//   - AMOSScheme certifies the language amos — which is NOT in LD (see
//     experiment E9) but IS in NLD via distance certificates, exhibiting
//     LD ⊊ NLD exactly as the paper's discussion anticipates;
//   - SpanningTreeScheme certifies "the marked edges form a spanning
//     tree", the classic example of proof labeling [20].
//
// The §5 obstacle the paper describes — certificates "may change
// radically" when instances are glued — is directly visible here: the
// AMOS certificates are global distance counters, exactly the kind of
// information that gluing invalidates.
package certify

import (
	"encoding/binary"
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Certificates assigns one certificate string per node.
type Certificates [][]byte

// Scheme is a proof-labeling scheme: a prover (certificate constructor)
// plus a local verifier.
type Scheme interface {
	Name() string
	// Radius is the verifier's view radius.
	Radius() int
	// Prove produces certificates for a configuration believed to be in
	// the language; for configurations outside the language it may
	// return anything (soundness quantifies over all certificates).
	Prove(di *lang.DecisionInstance) (Certificates, error)
	// Verify is the per-node verdict; the certificate of ball-local node
	// i is certs[i] (indexed like the view).
	Verify(v *local.View, certs [][]byte) bool
}

// VerifyAll runs the verifier at every node with the given certificates
// and returns the conjunction (acceptance, §2.2.1 style). The views come
// from one local.Engine over the instance's plan, so balls and view
// skeletons are built once per call, not once per node.
func VerifyAll(di *lang.DecisionInstance, s Scheme, certs Certificates) bool {
	if len(certs) != di.G.N() {
		return false
	}
	return newVerifier(di, s).accepts(certs)
}

// verifier checks certificate assignments against one instance. It
// keeps what does not change between assignments — the engine with its
// cached view skeletons, each node's ball-local certificate row and the
// verdict row — so a warm check allocates nothing and rewrites only the
// certificate pointers.
type verifier struct {
	di      *lang.DecisionInstance
	s       Scheme
	eng     *local.Engine
	rows    [][][]byte // rows[v][i]: certificate of v's ball-local node i
	verdict []bool
	certs   Certificates // the assignment under check, during accepts
	visit   func(v int, view *local.View)
}

func newVerifier(di *lang.DecisionInstance, s Scheme) *verifier {
	n := di.G.N()
	vf := &verifier{
		di:      di,
		s:       s,
		eng:     local.MustPlan(di.G).NewEngine(),
		rows:    make([][][]byte, n),
		verdict: make([]bool, n),
	}
	vf.visit = vf.check
	return vf
}

// accepts reports whether every node accepts certs, which must hold one
// certificate per node.
func (vf *verifier) accepts(certs Certificates) bool {
	vf.certs = certs
	vf.eng.ForEachDecisionView(vf.di, vf.s.Radius(), nil, vf.visit)
	vf.certs = nil
	for _, ok := range vf.verdict {
		if !ok {
			return false
		}
	}
	return true
}

// check is the per-node verdict; nodes touch disjoint rows, so the
// engine may visit them concurrently.
func (vf *verifier) check(v int, view *local.View) {
	row := vf.rows[v]
	if row == nil {
		row = make([][]byte, view.Ball.Size())
		vf.rows[v] = row
	}
	for i, u := range view.Ball.Nodes {
		row[i] = vf.certs[u]
	}
	vf.verdict[v] = vf.s.Verify(view, row)
}

// Completeness checks that the prover's certificates are accepted on a
// configuration known to be in the language.
func Completeness(di *lang.DecisionInstance, s Scheme) (bool, error) {
	certs, err := s.Prove(di)
	if err != nil {
		return false, err
	}
	return VerifyAll(di, s, certs), nil
}

// SoundnessSearch attacks a configuration OUTSIDE the language with
// `attempts` random certificate assignments (plus the prover's own
// output) of up to maxLen bytes per node, reporting the first assignment
// that fools the verifier, if any. A nil return means the verifier
// survived the search — empirical evidence of soundness, not a proof.
// Every attempt is checked by one verifier over one engine, and the
// random certificates are drawn into one reused slab, so the search
// allocates nothing per attempt; a returned assignment is a fresh copy.
func SoundnessSearch(di *lang.DecisionInstance, s Scheme, attempts, maxLen int, seed uint64) (Certificates, error) {
	vf := newVerifier(di, s)
	// The prover's own certificates must not fool the verifier either.
	if certs, err := s.Prove(di); err == nil && len(certs) == di.G.N() {
		if vf.accepts(certs) {
			return certs, nil
		}
	}
	src := localrand.NewSource(seed)
	n := di.G.N()
	certs := make(Certificates, n)
	slab := make([]byte, n*maxLen)
	for a := 0; a < attempts; a++ {
		for v := 0; v < n; v++ {
			l := src.Intn(maxLen + 1)
			c := slab[v*maxLen : v*maxLen+l : v*maxLen+l]
			for i := range c {
				c[i] = byte(src.Intn(256))
			}
			certs[v] = c
		}
		if vf.accepts(certs) {
			fooling := make(Certificates, n)
			for v, c := range certs {
				fooling[v] = append([]byte{}, c...)
			}
			return fooling, nil
		}
	}
	return nil, nil
}

// Helpers shared by the schemes: certificates carry small unsigned
// integers in fixed 4-byte big-endian form.
func encodeU32(x uint32) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, x)
	return out
}

func decodeU32(c []byte) (uint32, bool) {
	if len(c) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(c), true
}

// ErrNotInLanguage is returned by provers asked to certify a
// configuration outside their language.
var ErrNotInLanguage = fmt.Errorf("certify: configuration not in the language")
