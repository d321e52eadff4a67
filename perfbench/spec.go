package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the measuring time BENCHMARK.json asks each run for.
const runSeconds = 12

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is the BENCHMARK.json schema.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specEndToEnd `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

// spec builds BENCHMARK.json from the workload table and metric registry.
func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specEndToEnd{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return s
}

func writeSpec(w io.Writer) error {
	data, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
