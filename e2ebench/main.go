// Command e2ebench is hetsched's end-to-end benchmark. It drives the
// system the way an application does — through the hetsched facade —
// on three workloads, checks every output, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// timing wrapper installed. With -trace 1 the workload runs twice from
// the same seed, untraced and then traced; the traced pass wraps the
// calls into each layer with spans kept in memory, the two passes must
// produce the same plans and communicator counters, the metrics are
// the per-layer ones, and the spans are written under -out.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash e2ebench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// setups is how many times an untraced run builds the system;
	// setup_s is their median.
	setups = 9
	// rounds splits the measured run into consecutive rounds; p50_ms,
	// tail_ms, ops_per_s and cpu_ms_per_op are medians over rounds, so
	// a burst of interference from outside the process moves one round,
	// not the result.
	rounds = 5
)

// metric is one named, unit-bearing measurement.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// endToEnd lists the untraced metrics in report order; BENCHMARK.json
// names the same set.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "p50_ms", Unit: "ms"},
	{Name: "tail_ms", Unit: "ms"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "plan_over_lb", Unit: "ratio"},
	{Name: "cpu_ms_per_op", Unit: "ms"},
	{Name: "max_rss_mb", Unit: "MB"},
}

// perLayer lists the traced metrics in report order; BENCHMARK.json
// names the same set. A layer a workload does not call reports 0.
var perLayer = []metric{
	{Name: "directory.snapshot_us_p50", Unit: "us"},
	{Name: "directory.snapshot_us_p99", Unit: "us"},
	{Name: "directory.snapshot_calls", Unit: "count"},
	{Name: "directory.snapshot_kb", Unit: "KB"},
	{Name: "directory.calibrate_push_us", Unit: "us"},
	{Name: "directory.retries", Unit: "count"},
	{Name: "directory.store_update_us", Unit: "us"},
	{Name: "serve.cache_hit_share", Unit: "ratio"},
	{Name: "serve.coalesced_share", Unit: "ratio"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms"},
	{Name: "serve.queue_wait_ms_p99", Unit: "ms"},
	{Name: "serve.residence_us_p50", Unit: "us"},
	{Name: "serve.residence_us_p99", Unit: "us"},
	{Name: "serve.wire_us", Unit: "us"},
	{Name: "serve.req_bytes", Unit: "B"},
	{Name: "serve.resp_bytes", Unit: "B"},
	{Name: "comm.self_us", Unit: "us"},
	{Name: "comm.plans", Unit: "count"},
	{Name: "comm.repairs", Unit: "count"},
	{Name: "comm.recomputes", Unit: "count"},
	{Name: "comm.repair_us", Unit: "us"},
	{Name: "comm.recompute_us", Unit: "us"},
	{Name: "comm.plan_us_p50", Unit: "us"},
	{Name: "comm.plan_us_p99", Unit: "us"},
	{Name: "comm.calib_batches", Unit: "count"},
	{Name: "comm.calib_push_errors", Unit: "count"},
	{Name: "sched.schedule_us_p50", Unit: "us"},
	{Name: "sched.schedule_us_p99", Unit: "us"},
	{Name: "sched.schedule_calls", Unit: "count"},
	{Name: "sched.replan_us", Unit: "us"},
	{Name: "sched.replans", Unit: "count"},
	{Name: "exec.wall_ms", Unit: "ms"},
	{Name: "exec.wall_over_modeled", Unit: "ratio"},
	{Name: "exec.over_lb", Unit: "ratio"},
	{Name: "exec.goodput_mb_s", Unit: "MB/s"},
	{Name: "exec.retries", Unit: "count"},
	{Name: "exec.retried_bytes", Unit: "B"},
	{Name: "exec.rounds", Unit: "count"},
	{Name: "exec.dup_suppressed", Unit: "count"},
	{Name: "exec.cpu_ms_per_exchange", Unit: "ms"},
	{Name: "faults.sleep_ms_per_exchange", Unit: "ms"},
	{Name: "faults.conns", Unit: "count"},
	{Name: "calib.trusted_share", Unit: "ratio"},
	{Name: "calib.rejected_samples", Unit: "count"},
	{Name: "go.alloc_kb_per_op", Unit: "KB"},
	{Name: "go.gc_per_op", Unit: "count"},
	{Name: "trace.overhead_share", Unit: "ratio"},
}

// limit bounds a run by wall time, op count, or both (0 = unbounded).
type limit struct {
	dur time.Duration
	ops int
}

func (l limit) done(start time.Time, ops int) bool {
	return (l.dur > 0 && time.Since(start) >= l.dur) || (l.ops > 0 && ops >= l.ops)
}

// opRecord is one completed op.
type opRecord struct {
	id    uint64        // stable across passes of the same seed
	lat   time.Duration // as the caller saw it
	tmax  float64       // modeled completion time of the plan
	tlb   float64       // the plan's lower bound
	fixed bool          // the plan must repeat exactly in another pass
	stats []int         // communicator counters after the op that must repeat exactly
}

// outcome is what one run of a workload measured.
type outcome struct {
	ops      []opRecord
	failed   int
	problems []string
	busy     time.Duration // the time ops_per_s divides by
}

func (o *outcome) add(r *outcome) {
	o.ops = append(o.ops, r.ops...)
	o.failed += r.failed
	o.problems = append(o.problems, r.problems...)
	o.busy += r.busy
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) latencies() []float64 {
	out := make([]float64, len(o.ops))
	for i, op := range o.ops {
		out[i] = float64(op.lat) / float64(time.Millisecond)
	}
	return out
}

// measure is what the harness read around a measured run.
type measure struct {
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
}

// system is one workload's running set-up.
type system interface {
	// run drives ops until lim is reached.
	run(lim limit) *outcome
	// begin starts the measured run: the rounds that follow are
	// measured as one.
	begin()
	// finish runs the checks that need the whole measured run and
	// returns the workload's own figures.
	finish(o *outcome) []metric
	// layers derives the per-layer metrics of a traced run.
	layers(o *outcome, m measure) []metric
	// close releases every listener, server, client and transport.
	close() error
}

type workload struct {
	name  string
	tailQ float64 // the tail percentile tail_ms reports
	warm  limit
	setup func(seed int64, rec *recorder, out string) (system, error)
}

var workloads = []workload{serveZipf, exchangeDrift, repeatDrift}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: serve-zipf, exchange-drift or repeat-drift")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured seconds per pass")
	trace := fl.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for span files and dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (serve-zipf|exchange-drift|repeat-drift), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	lim := limit{dur: time.Duration(*seconds) * time.Second}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, lim, *out)
	} else {
		rep, err = untracedRun(w, *seed, lim, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	hit, served := -1.0, false
	for _, m := range rep.notes {
		if m.Name == "serve.cache_hit_share" {
			hit, served = m.Value, true
		}
	}
	fp := hostFingerprint(w.name, *seed, *trace == 1, hit)
	if served && math.Abs(hit-0.5) < 0.05 {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"cache hit share %.3f is within 5 points of 50%%: p50_ms would flip between hit and miss", hit))
	}
	rep.print(stdout, fp)
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "e2ebench: %s: check failed: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

// report is one invocation's result.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []metric
	problems          []string
}

func (r *report) print(w io.Writer, fp map[string]any) {
	for _, m := range r.notes {
		fmt.Fprintf(w, "# %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if b, err := json.Marshal(map[string]any{"fingerprint": fp}); err == nil {
		fmt.Fprintf(w, "%s\n", b)
	}
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	if err != nil {
		return
	}
	fmt.Fprintf(w, "%s\n", last)
}

// pass is one set-up, warm-up and measured run of a workload.
type pass struct {
	warm, o *outcome // o merges the measured rounds
	rounds  []round
	m       measure
	notes   []metric
	layers  []metric
	setupS  []float64
}

// round is what one measured round gave.
type round struct {
	lat  []float64 // ms
	busy time.Duration
	cpu  time.Duration
}

// median returns the median over rounds of f.
func (p *pass) median(f func(r round) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r)
	}
	return quantile(xs, 0.5)
}

// all returns the warm-up and measured ops in order.
func (p *pass) all() []opRecord { return append(append([]opRecord(nil), p.warm.ops...), p.o.ops...) }

// runPass sets the workload up (n times, keeping the last system),
// warms it, measures it for lim, and tears it down, checking that every
// goroutine it started has ended.
func runPass(w *workload, seed int64, rec *recorder, lim limit, out string, n int) (*pass, error) {
	g0 := runtime.NumGoroutine()
	p := &pass{}
	var sys system
	for i := 0; i < n; i++ {
		// Each set-up starts from a collected heap, so a collection
		// owed to the previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		s, err := w.setup(seed, rec, out)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		if i < n-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			continue
		}
		sys = s
	}
	p.warm = sys.run(w.warm)
	if rec != nil {
		rec.startMeasure()
	}
	sys.begin()
	per := limit{dur: lim.dur / rounds, ops: (lim.ops + rounds - 1) / rounds}
	p.o = &outcome{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := readUsage()
	for i := 0; i < rounds; i++ {
		ru := readUsage()
		o := sys.run(per)
		p.rounds = append(p.rounds, round{lat: o.latencies(), busy: o.busy, cpu: readUsage().cpu - ru.cpu})
		p.o.add(o)
	}
	p.m.cpu = readUsage().cpu - u0.cpu
	runtime.ReadMemStats(&ms1)
	p.m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.m.gcs = ms1.NumGC - ms0.NumGC
	p.notes = sys.finish(p.o)
	if rec != nil {
		p.layers = sys.layers(p.o, p.m)
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	p.o.problems = append(p.warm.problems, p.o.problems...)
	p.o.failed += p.warm.failed
	if g := settleGoroutines(g0); g > g0 {
		p.o.problemf("%d goroutines before the workload, %d after it closed", g0, g)
	}
	return p, nil
}

// settleGoroutines waits up to 5 s for the goroutine count to fall back
// to want and returns the last count seen.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= want || time.Now().After(deadline) {
			return g
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func untracedRun(w *workload, seed int64, lim limit, out string) (*report, error) {
	p, err := runPass(w, seed, nil, lim, out, setups)
	if err != nil {
		return nil, err
	}
	o := p.o
	if len(o.ops) == 0 {
		return nil, fmt.Errorf("no op completed: %s", strings.Join(o.problems, "; "))
	}
	lat := o.latencies()
	ratios := make([]float64, len(o.ops))
	for i, op := range o.ops {
		ratios[i] = op.tmax / op.tlb
	}
	vals := map[string]float64{
		"setup_s":      quantile(p.setupS, 0.5),
		"p50_ms":       p.median(func(r round) float64 { return quantile(r.lat, 0.5) }),
		"tail_ms":      p.median(func(r round) float64 { return quantile(r.lat, w.tailQ) }),
		"ops_per_s":    p.median(func(r round) float64 { return float64(len(r.lat)) / r.busy.Seconds() }),
		"plan_over_lb": mean(ratios),
		"cpu_ms_per_op": p.median(func(r round) float64 {
			return float64(r.cpu) / float64(time.Millisecond) / float64(len(r.lat))
		}),
		"max_rss_mb": float64(readUsage().maxRSS) / (1 << 20),
	}
	rep := &report{
		attempted: len(o.ops) + o.failed,
		failed:    o.failed,
		problems:  o.problems,
		notes: append([]metric{
			{Name: "ops", Unit: "count", Value: float64(len(o.ops))},
			{Name: "fail_share", Unit: "ratio", Value: float64(o.failed) / float64(len(o.ops)+o.failed)},
			{Name: "p90_ms", Unit: "ms", Value: quantile(lat, 0.90)},
			{Name: "p99_ms", Unit: "ms", Value: quantile(lat, 0.99)},
		}, p.notes...),
	}
	for _, m := range endToEnd {
		m.Value = vals[m.Name]
		rep.metrics = append(rep.metrics, m)
	}
	return rep, nil
}

func tracedRun(w *workload, seed int64, lim limit, out string) (*report, error) {
	u, err := runPass(w, seed, nil, lim, out, 1)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	t, err := runPass(w, seed, rec, lim, out, 1)
	if err != nil {
		return nil, err
	}
	if len(t.o.ops) == 0 || len(u.o.ops) == 0 {
		return nil, fmt.Errorf("no op completed: %s", strings.Join(append(u.o.problems, t.o.problems...), "; "))
	}
	problems := append(append([]string(nil), u.o.problems...), t.o.problems...)
	for _, d := range matchPasses(u.all(), t.all()) {
		problems = append(problems, "traced pass differs from untraced: "+d)
	}
	n := float64(len(t.o.ops))
	vals := map[string]float64{
		"go.alloc_kb_per_op":   float64(t.m.allocBytes) / 1024 / n,
		"go.gc_per_op":         float64(t.m.gcs) / n,
		"trace.overhead_share": mean(t.o.latencies())/mean(u.o.latencies()) - 1,
	}
	for _, m := range t.layers {
		vals[m.Name] = m.Value
	}
	rep := &report{
		attempted: len(t.o.ops) + t.o.failed,
		failed:    t.o.failed,
		problems:  problems,
		notes: append([]metric{
			{Name: "untraced_ops", Unit: "count", Value: float64(len(u.o.ops))},
			{Name: "traced_ops", Unit: "count", Value: n},
			{Name: "untraced_p50_ms", Unit: "ms", Value: quantile(u.o.latencies(), 0.5)},
			{Name: "traced_p50_ms", Unit: "ms", Value: quantile(t.o.latencies(), 0.5)},
		}, t.notes...),
	}
	for _, m := range perLayer {
		m.Value = orZero(vals[m.Name])
		rep.metrics = append(rep.metrics, m)
	}
	if err := rec.write(filepath.Join(out, "spans"), fmt.Sprintf("spans-%s-seed%d", w.name, seed), rep.metrics); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// matchPasses compares a traced pass with the untraced pass of the
// same seed, op by op: the communicator counters must be equal on every
// op both ran, and the plan on every such op marked fixed in both.
func matchPasses(untraced, traced []opRecord) []string {
	byID := make(map[uint64]opRecord, len(untraced))
	for _, op := range untraced {
		byID[op.id] = op
	}
	var diffs []string
	common, planned := 0, 0
	for _, t := range traced {
		u, ok := byID[t.id]
		if !ok {
			continue
		}
		common++
		if !slices.Equal(u.stats, t.stats) {
			diffs = append(diffs, fmt.Sprintf("op %#x: counters %v vs %v", t.id, u.stats, t.stats))
		}
		if u.fixed && t.fixed {
			planned++
			if u.tmax != t.tmax || u.tlb != t.tlb {
				diffs = append(diffs, fmt.Sprintf("op %#x: t_max %g vs %g", t.id, u.tmax, t.tmax))
			}
		}
		if len(diffs) >= 10 {
			return diffs
		}
	}
	if common == 0 || common < min(len(untraced), len(traced))/2 {
		diffs = append(diffs, fmt.Sprintf("only %d ops in common", common))
	}
	if planned == 0 {
		diffs = append(diffs, "no op whose plan must repeat ran in both passes")
	}
	return diffs
}

// hostFingerprint records where and from what a result was measured.
func hostFingerprint(workload string, seed int64, traced bool, hitShare float64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fp := map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
	if hitShare >= 0 {
		fp["serve.cache_hit_share"] = hitShare
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the exact code it measured even where no VCS data is
// stamped into the binary.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		//hetvet:ignore errdiscard hash writes cannot fail
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
