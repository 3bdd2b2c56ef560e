package localrand

import (
	"math"
	"testing"
)

// refFaultWord is the chained four-step walk FaultTape.Word performed
// before the prefix split, kept as the reference the split must match.
func refFaultWord(t FaultTape, channel, a, b, c uint64) uint64 {
	h := mix64(t.seed + splitmixGamma*(channel+1))
	h = mix64(h + splitmixGamma*(a+1))
	h = mix64(h + splitmixGamma*(b+1))
	return mix64(h + splitmixGamma*(c+1))
}

// refFaultBernoulli is the pre-split FaultTape.Bernoulli body.
func refFaultBernoulli(t FaultTape, p float64, channel, a, b, c uint64) bool {
	if p <= 0 {
		return false
	}
	return float64(refFaultWord(t, channel, a, b, c)>>11)/(1<<53) < p
}

// TestFaultPrefixMatchesTape draws 10⁵ random coordinates per
// probability and requires the prefix form, the tape form and the
// pre-split reference to agree on every word and every event — the
// probabilities cover the never-fires edge (0, NaN), an event too rare to
// show up by chance (1e-9), the rates E17 sweeps, and the always-fires
// edge (1).
func TestFaultPrefixMatchesTape(t *testing.T) {
	const draws = 100_000
	probs := []float64{0, 1e-9, 0.05, 0.5, 1, math.NaN()}
	src := NewSource(2015)
	edges := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	coord := func() uint64 {
		switch r := src.Intn(16); {
		case r == 0:
			return edges[src.Intn(len(edges))]
		case r < 8:
			return uint64(src.Intn(4096))
		default:
			return src.Uint64()
		}
	}
	for _, p := range probs {
		fired := 0
		for i := 0; i < draws; i++ {
			tape := NewFaultTape(src.Uint64())
			ch, a, b, c := coord(), coord(), coord(), coord()
			pre := tape.Prefix(ch, a, b)
			want := refFaultWord(tape, ch, a, b, c)
			if got := pre.Word(c); got != want {
				t.Fatalf("Prefix(%d,%d,%d).Word(%d) = %#x, want %#x", ch, a, b, c, got, want)
			}
			if got := tape.Word(ch, a, b, c); got != want {
				t.Fatalf("Word(%d,%d,%d,%d) = %#x, want %#x", ch, a, b, c, got, want)
			}
			wantEv := refFaultBernoulli(tape, p, ch, a, b, c)
			if got := pre.Bernoulli(p, c); got != wantEv {
				t.Fatalf("p=%v: Prefix(%d,%d,%d).Bernoulli(%d) = %v, want %v", p, ch, a, b, c, got, wantEv)
			}
			if got := tape.Bernoulli(p, ch, a, b, c); got != wantEv {
				t.Fatalf("p=%v: Bernoulli(%d,%d,%d,%d) = %v, want %v", p, ch, a, b, c, got, wantEv)
			}
			if wantEv {
				fired++
			}
		}
		switch {
		case p == 1 && fired != draws, !(p > 0) && fired != 0:
			t.Errorf("p=%v fired %d of %d", p, fired, draws)
		case p == 0.5 && (fired < draws*45/100 || fired > draws*55/100):
			t.Errorf("p=0.5 fired %d of %d", fired, draws)
		}
	}
}
