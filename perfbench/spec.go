package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark checks its
// output against, so the declared and the reported metrics cannot
// drift apart.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root (the working
// directory).
func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// check reports whether m holds exactly the declared metrics, with the
// declared units.
func (s *benchSpec) check(m metrics, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(m), len(want))
	}
	for _, d := range want {
		got, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared but not reported", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
	}
	return nil
}
