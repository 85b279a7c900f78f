package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTracedMatchesUntraced pins that the timing decorators leave the
// program path alone: from the same seed, the traced pass serves the
// same plans and the communicator counts the same work as the
// untraced pass, and both pass every correctness check.
func TestTracedMatchesUntraced(t *testing.T) {
	ops := map[string]int{"serve-zipf": 150, "exchange-drift": 3, "repeat-drift": 60}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			lim := limit{ops: ops[w.name]}
			u, err := runPass(w, 7, nil, lim, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runPass(w, 7, newRecorder(), lim, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range append(u.o.problems, tr.o.problems...) {
				t.Error(p)
			}
			if len(u.o.ops) == 0 {
				t.Fatal("no op completed")
			}
			for _, d := range matchPasses(u.all(), tr.all()) {
				t.Error(d)
			}
			if len(tr.layers) == 0 {
				t.Error("traced pass reported no per-layer metric")
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
