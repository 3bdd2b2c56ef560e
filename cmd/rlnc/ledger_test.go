package main

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rlnc/internal/local"
)

// TestDeterminismLedger pins the determinism ledger of
// docs/ARCHITECTURE.md: a rendered table is a function of the experiment,
// the quick flag and the seed alone. GOMAXPROCS, the shard count and the
// cut-exchange transport all change how many workers a sweep and its
// node passes get — and the shared core budget makes that depend on
// concurrent load too — but never a byte of output. E2 (retry coloring),
// E10 (the headline sweep) and E17 (faults) are rendered across the
// whole matrix, then once more with every extra core held by the test so
// each sweep runs one worker and every node pass runs inline; all
// renders must agree, and E2 must equal its committed golden.
func TestDeterminismLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables in -short mode")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	golden := map[string]string{"E2": "run_E2_quick_seed7.golden"}
	for _, id := range []string{"E2", "E10", "E17"} {
		t.Run(id, func(t *testing.T) {
			render := func(procs int, args ...string) []byte {
				runtime.GOMAXPROCS(procs)
				return captureStdout(t, func() error {
					return cmdRun(append([]string{id, "-quick", "-seed", "7"}, args...))
				})
			}
			want := render(1)
			if name, ok := golden[id]; ok {
				expectGolden(t, name, want)
			}
			check := func(config string, got []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from GOMAXPROCS=1 unsharded:\n--- want ---\n%s\n--- got ---\n%s", config, want, got)
				}
			}
			for _, procs := range []int{1, 2, 8} {
				if procs > 1 {
					check(fmt.Sprintf("GOMAXPROCS=%d", procs), render(procs))
				}
				for _, shards := range []string{"2", "4"} {
					for _, transport := range []string{"chan", "tcp-loopback"} {
						check(fmt.Sprintf("GOMAXPROCS=%d shards=%s transport=%s", procs, shards, transport),
							render(procs, "-shards", shards, "-transport", transport))
					}
				}
			}
			runtime.GOMAXPROCS(8)
			held := local.AcquireCores(7)
			defer local.ReleaseCores(held)
			if held != 7 {
				t.Fatalf("held %d of the 7 extra cores; a concurrent test holds the rest", held)
			}
			check("GOMAXPROCS=8 with every extra core held", render(8))
		})
	}
}
