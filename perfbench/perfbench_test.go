package main

import (
	"path/filepath"
	"testing"
)

// tiny runs a workload at a small fraction of its size.
func tiny(t *testing.T, workload string, trace bool, corrupt func([]outcome)) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(params{
		workload: workload, seed: 7, seconds: 1, trace: trace, shrink: 32,
		dir: dir, spans: filepath.Join(dir, "spans.jsonl"), corrupt: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a small
// size: each must report every metric of its mode and no failed operation.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := tiny(t, w.name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, def := range metricDefs(trace) {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", w.name, trace, def.name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.name, m.Value)
				}
			}
			if len(res.Metrics) != len(metricDefs(trace)) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(metricDefs(trace)))
			}
		}
	}
}

// TestGateTripsOnCorruptReference tampers with one reference outcome: every
// workload serves and recovers that key, so the run must come out
// incorrect with failed operations.
func TestGateTripsOnCorruptReference(t *testing.T) {
	for _, w := range workloads {
		res := tiny(t, w.name, false, func(ref []outcome) { ref[0].leader++ })
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference went unnoticed (correct=%v failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

// TestGenerateIsSeeded pins that the inputs are a function of the seed.
func TestGenerateIsSeeded(t *testing.T) {
	a, b, c := generate(3, 30, 6, 8, 24), generate(3, 30, 6, 8, 24), generate(4, 30, 6, 8, 24)
	same := func(x, y *corpus) bool {
		for i := range x.texts {
			if x.texts[i] != y.texts[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed generated different configurations")
	}
	if same(a, c) {
		t.Error("different seeds generated the same configurations")
	}
}
