package lang

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rlnc/internal/graph"
)

// rowFamilies are the host graphs of the row-vs-ball differential — the
// same shapes as the decider-level differential in internal/decide.
func rowFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegular(48, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cycle":          graph.Cycle(24),
		"grid":           graph.Grid(5, 5),
		"tree":           graph.CompleteTree(3, 3),
		"star":           graph.Star(9),
		"random-regular": rr,
	}
}

// corruptColumn builds an adversarial output column: mostly valid
// colors/marks, salted with empty outputs, overlong outputs,
// out-of-palette colors and (for selection languages) bad mark bytes.
func corruptColumn(rng *rand.Rand, n, q int, selection bool) [][]byte {
	y := make([][]byte, n)
	for v := range y {
		switch rng.Intn(8) {
		case 0:
			y[v] = []byte{}
		case 1:
			y[v] = []byte{0, 0}
		case 2:
			if selection {
				y[v] = []byte{7}
			} else {
				y[v] = []byte{byte(q + rng.Intn(3))}
			}
		default:
			if selection {
				y[v] = EncodeSelected(rng.Intn(2) == 1)
			} else {
				y[v] = EncodeColor(rng.Intn(q))
			}
		}
	}
	return y
}

// ballOnly strips BadRow, leaving the per-ball reference path.
func ballOnly(l *LCL) *LCL {
	return &LCL{LangName: l.LangName, Radius: l.Radius, Bad: l.Bad}
}

// rowOnly replaces Bad with a tripwire, so a count that falls back to
// ball assembly instead of the BadRow path fails loudly.
func rowOnly(l *LCL) *LCL {
	return &LCL{
		LangName: l.LangName,
		Radius:   l.Radius,
		Bad:      func(*LabeledBall) bool { panic("lang: BadRow path not taken") },
		BadRow:   l.BadRow,
	}
}

// TestBadRowCountsMatchBallPath is the row-vs-ball differential: for
// every language defining BadRow, on every family, across seeds of
// corrupted output columns, CountBadBalls, BadNodes and Contains through
// BadRow must equal the per-ball Bad reference.
func TestBadRowCountsMatchBallPath(t *testing.T) {
	langs := []struct {
		l         *LCL
		selection bool
	}{
		{ProperColoring(3), false},
		{WeakColoring(3), false},
		{MIS(), true},
	}
	for name, g := range rowFamilies(t) {
		n := g.N()
		for _, lc := range langs {
			t.Run(fmt.Sprintf("%s/%s", name, lc.l.LangName), func(t *testing.T) {
				ref, row := ballOnly(lc.l), rowOnly(lc.l)
				rng := rand.New(rand.NewSource(int64(n * 1000)))
				for seed := 0; seed < 8; seed++ {
					c := &Config{G: g, X: EmptyInputs(n), Y: corruptColumn(rng, n, 3, lc.selection)}
					want := ref.BadNodes(c)
					if got := row.BadNodes(c); !slices.Equal(got, want) {
						t.Fatalf("seed %d: row BadNodes %v, ball path %v", seed, got, want)
					}
					if got := row.CountBadBalls(c); got != len(want) {
						t.Fatalf("seed %d: row CountBadBalls %d, ball path %d", seed, got, len(want))
					}
					if got := lc.l.CountBadBalls(c); got != len(want) {
						t.Fatalf("seed %d: CountBadBalls %d, ball path %d", seed, got, len(want))
					}
					ok, err := row.Contains(c)
					if err != nil || ok != (len(want) == 0) {
						t.Fatalf("seed %d: row Contains = %v, %v; ball path has %d bad balls", seed, ok, err, len(want))
					}
				}
			})
		}
	}
}

// TestBadBallCountRejectsShapeMismatch pins the shape contract of the
// counting paths: a configuration whose columns do not cover the graph
// is never counted — CountBadBalls and BadNodes panic with ErrShape on
// both the BadRow and the per-ball path (so a short column is never
// read from a zeroed scratch), and Contains reports ErrShape.
func TestBadBallCountRejectsShapeMismatch(t *testing.T) {
	g := graph.Cycle(6)
	n := g.N()
	full := make([][]byte, n+1)
	for v := range full {
		full[v] = EncodeColor(v % 2)
	}
	shapes := map[string]*Config{
		"short-y": {G: g, X: EmptyInputs(n), Y: full[:n-1]},
		"long-y":  {G: g, X: EmptyInputs(n), Y: full},
		"short-x": {G: g, X: EmptyInputs(n - 1), Y: full[:n]},
	}
	mustPanicShape := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			err, _ := recover().(error)
			if !errors.Is(err, ErrShape) {
				t.Errorf("%s: recovered %v, want a panic wrapping ErrShape", what, err)
			}
		}()
		f()
	}
	for name, c := range shapes {
		for _, l := range []*LCL{ProperColoring(3), ballOnly(ProperColoring(3))} {
			path := "row"
			if l.BadRow == nil {
				path = "ball"
			}
			t.Run(name+"/"+path, func(t *testing.T) {
				mustPanicShape(t, "CountBadBalls", func() { l.CountBadBalls(c) })
				mustPanicShape(t, "BadNodes", func() { l.BadNodes(c) })
				if _, err := l.Contains(c); !errors.Is(err, ErrShape) {
					t.Errorf("Contains error %v, want ErrShape", err)
				}
			})
		}
	}
}
