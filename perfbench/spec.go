package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark definition at the repository root. Metric
// names, units, directions and bounds are read from it, so the names a
// run prints and the names a regression check gates on cannot drift.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs end_to_end and per_layer metrics", path)
	}
	return &s, nil
}

// metrics returns the metrics a run in the given trace mode reports.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
