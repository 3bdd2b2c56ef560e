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
// the quick flag, the seed and the fault plan alone. GOMAXPROCS, the
// shard count and the cut-exchange transport all change how many workers
// a sweep and its node passes get — and the shared core budget makes
// that depend on concurrent load too — but never a byte of output. E2
// (retry coloring), E10 (the headline sweep), E17 (faults) and E2 under
// a drop/delay/crash plan are rendered across the whole matrix, then
// once more with every extra core held by the test so each sweep runs
// one worker and every node pass runs inline; all renders of a row must
// agree, and both E2 rows must equal their committed goldens.
func TestDeterminismLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables in -short mode")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, row := range []struct {
		name, id string
		args     []string
		golden   string
	}{
		{"E2", "E2", nil, "run_E2_quick_seed7.golden"},
		{"E10", "E10", nil, ""},
		{"E17", "E17", nil, ""},
		{"E2-faults", "E2", []string{"-drop", "0.05", "-delay", "0.05", "-crash", "0.01"}, "run_E2_quick_seed7_faults.golden"},
	} {
		t.Run(row.name, func(t *testing.T) {
			render := func(procs int, args ...string) []byte {
				runtime.GOMAXPROCS(procs)
				argv := append([]string{row.id, "-quick", "-seed", "7"}, row.args...)
				return captureStdout(t, func() error {
					return cmdRun(append(argv, args...))
				})
			}
			want := render(1)
			if row.golden != "" {
				expectGolden(t, row.golden, want)
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
