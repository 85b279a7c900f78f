package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// The -bench-json mode: in-process micro-benchmarks of the planning
// hot paths, written as BENCH_plan.json so the performance trajectory
// is tracked in-repo alongside the code. Three paths of the production
// repeated-exchange planner are measured at each processor count:
//
//   - cold-plan:    one plan with the communicator's default scheduler
//     (open shop), the cost a repeated exchange pays on a cache miss;
//   - warm-replan:  the steady-state AllToAllRepeated call — snapshot,
//     model rebuild into a pooled buffer, cache recognition — the path
//     the zero-alloc tests pin;
//   - drift-replan: AllToAllRepeated over a drifting network, where
//     every call misses the cache and replans.
//
// The timing loop is self-contained (no testing.B) so the numbers
// carry per-iteration samples: mean and p95 ns/op, plans/sec, and
// allocs/op from a separate MemStats-delta loop that cannot skew the
// timed samples.

// benchEntry is one measured path at one processor count.
type benchEntry struct {
	Name        string  `json:"name"`
	P           int     `json:"p"`
	Iters       int     `json:"iters"`
	PlansPerSec float64 `json:"plans_per_sec"`
	MeanNsOp    float64 `json:"mean_ns_op"`
	P95NsOp     float64 `json:"p95_ns_op"`
	AllocsOp    float64 `json:"allocs_op"`
}

// benchSpeedup compares warm-replan to cold-plan throughput at one
// processor count.
type benchSpeedup struct {
	P       int     `json:"p"`
	Speedup float64 `json:"warm_vs_cold"`
}

// benchReport is the whole BENCH_plan.json document. The schema string
// versions it; EXPERIMENTS.md documents the fields.
type benchReport struct {
	Schema     string         `json:"schema"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Ps         []int          `json:"ps"`
	Entries    []benchEntry   `json:"entries"`
	Speedups   []benchSpeedup `json:"speedup_warm_vs_cold"`
}

const (
	benchMinIters   = 20
	benchMaxIters   = 20000
	benchBudget     = 300 * time.Millisecond
	benchAllocIters = 50
)

// measureBench samples op until both the iteration floor and the time
// budget are met, then measures allocations over a separate loop —
// ReadMemStats inside the timed loop would distort the samples.
func measureBench(name string, p int, op func()) benchEntry {
	op() // warm caches and scratch buffers
	op()
	var samples []float64
	total := time.Duration(0)
	for len(samples) < benchMaxIters && (len(samples) < benchMinIters || total < benchBudget) {
		t0 := time.Now()
		op()
		d := time.Since(t0)
		total += d
		samples = append(samples, float64(d.Nanoseconds()))
	}
	sort.Float64s(samples)
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	idx := int(math.Ceil(0.95*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < benchAllocIters; i++ {
		op()
	}
	runtime.ReadMemStats(&ms1)
	return benchEntry{
		Name:        name,
		P:           p,
		Iters:       len(samples),
		PlansPerSec: 1e9 / mean,
		MeanNsOp:    mean,
		P95NsOp:     samples[idx],
		AllocsOp:    float64(ms1.Mallocs-ms0.Mallocs) / benchAllocIters,
	}
}

// driftedPerfs builds a cycle of performance tables where consecutive
// tables differ on about p/4 pairs by ±30%, so every replan sees a
// changed cost matrix.
func driftedPerfs(rng *rand.Rand, base *netmodel.Perf, p, hist int) []*netmodel.Perf {
	perfs := make([]*netmodel.Perf, hist)
	perfs[0] = base
	for k := 1; k < hist; k++ {
		next := perfs[k-1].Clone()
		for t := 0; t < p/4+1; t++ {
			i, j := rng.Intn(p), rng.Intn(p)
			if i == j {
				continue
			}
			pp := next.At(i, j)
			if t%2 == 0 {
				pp.Bandwidth *= 1.3
			} else {
				pp.Bandwidth *= 0.77
			}
			next.Set(i, j, pp)
		}
		perfs[k] = next
	}
	return perfs
}

// runBenchPlan executes the planning micro-benchmarks and writes the
// report to path.
func runBenchPlan(path string) error {
	ps := []int{8, 16, 50}
	rep := benchReport{
		Schema:     "hetsched-bench-plan/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ps:         ps,
	}
	for _, p := range ps {
		rng := rand.New(rand.NewSource(int64(p) * 9176))
		gcfg := netmodel.GustoGuided()
		// Asymmetric tables, as in every earlier BENCH_plan.json, keep
		// the trajectory comparable across versions.
		gcfg.Symmetric = false
		perf := netmodel.RandomPerf(rng, p, gcfg)
		sizes := model.UniformSizes(p, 1<<16)
		m, err := model.Build(perf, sizes)
		if err != nil {
			return err
		}
		var opErr error
		record := func(e error) {
			if opErr == nil && e != nil {
				opErr = e
			}
		}

		scheduler := sched.NewOpenShop()
		cold := measureBench("cold-plan", p, func() {
			_, e := scheduler.Schedule(m)
			record(e)
		})

		t0 := time.Unix(0, 0)
		steady, err := comm.New(p,
			func() (*netmodel.Perf, error) { return perf, nil },
			comm.Config{Scheduler: scheduler, Clock: func() time.Time { return t0 }})
		if err != nil {
			return err
		}
		warm := measureBench("warm-replan", p, func() {
			_, e := steady.AllToAllRepeated(sizes)
			record(e)
		})

		perfs := driftedPerfs(rng, perf, p, 8)
		idx := 0
		drifting, err := comm.New(p,
			func() (*netmodel.Perf, error) { idx++; return perfs[idx%len(perfs)], nil },
			comm.Config{Scheduler: scheduler, Clock: func() time.Time { return t0 }})
		if err != nil {
			return err
		}
		drift := measureBench("drift-replan", p, func() {
			_, e := drifting.AllToAllRepeated(sizes)
			record(e)
		})
		if opErr != nil {
			return opErr
		}
		rep.Entries = append(rep.Entries, cold, warm, drift)
		rep.Speedups = append(rep.Speedups, benchSpeedup{P: p, Speedup: cold.MeanNsOp / warm.MeanNsOp})
		fmt.Printf("bench p=%-3d cold %.0f ns/op (%.1f allocs)  warm %.0f ns/op (%.1f allocs)  drift %.0f ns/op  warm-vs-cold %.1f×\n",
			p, cold.MeanNsOp, cold.AllocsOp, warm.MeanNsOp, warm.AllocsOp, drift.MeanNsOp, cold.MeanNsOp/warm.MeanNsOp)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench-json: report written to %s\n", path)
	return nil
}
