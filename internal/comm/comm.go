// Package comm is the application-level entry point the paper's
// framework builds toward: "network-aware communication at the
// application level" (Section 1). A Communicator owns a source of
// network performance (a directory snapshotting function), plans
// collective operations on demand, and — for the sensor-style
// applications of Section 6.2 that repeat the same exchange — serves
// the previous plan again while the cost model holds still, replanning
// only when the network has moved.
package comm

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
)

// Source supplies current network performance — typically
// DirectoryClient.Snapshot or Store.Snapshot wrapped in a closure.
type Source func() (*netmodel.Perf, error)

// StaticSource wraps a fixed table as a Source.
func StaticSource(perf *netmodel.Perf) Source {
	fixed := perf.Clone()
	return func() (*netmodel.Perf, error) { return fixed.Clone(), nil }
}

// Config tunes a Communicator.
type Config struct {
	// Scheduler plans total exchanges, one-shot and repeated alike;
	// nil selects open shop.
	Scheduler sched.Scheduler
	// StaleBound is the fallback ladder's staleness budget: when the
	// source fails, a cached snapshot no older than this is used before
	// falling all the way to the uniform baseline. 0 selects
	// DefaultStaleBound; negative disables the stale rung entirely.
	StaleBound time.Duration
	// BaselineScheduler plans degraded-mode exchanges, where no network
	// knowledge is available; nil selects the caterpillar baseline.
	BaselineScheduler sched.Scheduler
	// Clock supplies the time for staleness decisions; nil selects
	// time.Now. Tests inject a fake clock here.
	Clock func() time.Time
	// Metrics registers the communicator's planning and fallback-ladder
	// instruments (plans, cache hits and drops, per-rung serve counters,
	// rung transitions, plan-time and per-algorithm schedule-quality
	// histograms) in this registry. Nil disables metrics: every hook
	// degrades to a nil-pointer no-op.
	Metrics *obs.Registry
	// Tracer records a span per planned exchange and an instant per
	// ladder-rung transition. Nil disables tracing.
	Tracer *obs.Tracer
	// Flight, when set, receives a flight-recorder event per served
	// exchange and triggers a post-mortem dump whenever the fallback
	// ladder transitions downward (fresh→stale, →degraded) — the
	// moment an outage becomes visible to planning. Nil disables it.
	Flight *obs.FlightRecorder
	// Calibrator, when set, closes the measurement loop: Execute feeds
	// the executor's per-transfer timings through it, and the fresh and
	// stale rungs of the fallback ladder overlay its trusted per-pair
	// estimates on every snapshot before planning (untrusted and cold
	// pairs keep the snapshot's values — the calibrator distrusts what
	// it cannot corroborate). Nil — the default — disables calibration
	// entirely; the disabled path is byte-identical to a communicator
	// built before calibration existed, allocations included.
	Calibrator *calib.Calibrator
	// CalibSink, when set alongside Calibrator, receives each batch of
	// confident estimates the calibrator drains after an Execute —
	// directory.CalibrateSink is the canonical adapter, completing the
	// loop back into the shared directory. Push failures are counted in
	// Stats, never fatal: the calibrator keeps its state and the next
	// drain re-derives anything still worth publishing.
	CalibSink func([]calib.Update) error
}

// Stats counts what the communicator did. When Config.Metrics is set,
// every field is mirrored into the registry (hetsched_comm_*_total and
// hetsched_ladder_served_total) so the same numbers appear on /metrics.
//
// Repairs and Recomputes are the metric and field names readers of
// these counters already use; they count the repeated-exchange plan
// cache's hits and drops.
type Stats struct {
	Plans      int // schedules computed
	Repairs    int // repeated exchanges served unchanged from the plan cache
	Recomputes int // cached plans dropped because the cost matrix changed

	// Fallback-ladder counters: which rung served each exchange.
	ServedFresh    int // planned from a live snapshot
	ServedStale    int // planned from the cached last-known-good table
	ServedDegraded int // planned blind with the uniform baseline

	// Calibration-feed counters; all zero while Config.Calibrator is
	// unset.
	CalibBatches    int // executor sample batches fed to the calibrator
	CalibPushes     int // update batches handed to the calibration sink
	CalibPushErrors int // sink pushes that reported failure
}

// Communicator plans network-aware collective communication. It is
// safe for concurrent use: the mutex guards the repeated-exchange
// cache and the counters, while planning itself runs outside the lock
// (schedulers are concurrent-safe by the sched.Scheduler contract).
type Communicator struct {
	n      int
	source Source
	cfg    Config
	tel    commTelemetry

	// matrices pools the cost-matrix buffers AllToAllRepeated builds
	// each snapshot into, so a cache hit allocates nothing. A buffer
	// returns to the pool unless a miss installs it as the cache's
	// matrix.
	matrices sync.Pool

	mu sync.Mutex // guards the fields below
	// The repeated-exchange plan cache: the last plan and the matrix it
	// was computed for. Neither is mutated once cached. planGen is
	// bumped by Invalidate; a plan installs, and a hit counts, only
	// under the generation it observed, so a plan that raced an
	// Invalidate is served but never cached.
	planGen    uint64
	lastMatrix *model.Matrix
	lastResult *sched.Result
	stats      Stats
	// fallback-ladder state
	lastPerf   *netmodel.Perf // last table the source served successfully
	lastPerfAt time.Time
	health     Health
}

// New creates a communicator for an n-processor system.
func New(n int, source Source, cfg Config) (*Communicator, error) {
	if n < 0 {
		return nil, fmt.Errorf("comm: negative processor count")
	}
	if source == nil {
		return nil, fmt.Errorf("comm: nil source")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewOpenShop()
	}
	if cfg.StaleBound == 0 {
		cfg.StaleBound = DefaultStaleBound
	}
	if cfg.BaselineScheduler == nil {
		cfg.BaselineScheduler = sched.Baseline{}
	}
	if cfg.Clock == nil {
		//hetvet:ignore determinism the communicator's one wall-clock default; tests and sims inject Clock
		cfg.Clock = time.Now
	}
	if cfg.Calibrator != nil && cfg.Calibrator.N() != n {
		return nil, fmt.Errorf("comm: calibrator is for %d processors, communicator for %d", cfg.Calibrator.N(), n)
	}
	if cfg.CalibSink != nil && cfg.Calibrator == nil {
		return nil, fmt.Errorf("comm: calibration sink set without a calibrator to drain")
	}
	c := &Communicator{n: n, source: source, cfg: cfg, tel: newCommTelemetry(cfg.Metrics, cfg.Tracer)}
	c.matrices.New = func() any { return new(model.Matrix) }
	return c, nil
}

// N returns the number of processors the communicator plans for.
func (c *Communicator) N() int { return c.n }

// Health reports which rung of the fallback ladder served the most
// recent exchange (ok before any exchange has run).
func (c *Communicator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health
}

// Stats returns the planning counters.
func (c *Communicator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// snapshotInto runs the fallback ladder, building the cost matrix
// into dst: a fresh source snapshot, then the cached last-known-good
// table if it is within StaleBound, then the uniform baseline model. It
// returns the rung that produced the matrix; an error is returned only
// for caller bugs (shape mismatches) or a broken source contract —
// never for a mere source outage, which the ladder absorbs. dst is
// resized as needed and allocates only when it must grow.
func (c *Communicator) snapshotInto(dst *model.Matrix, sizes *model.Sizes) (Health, error) {
	if sizes.N() != c.n {
		return HealthOK, fmt.Errorf("comm: sizes are for %d processors, communicator for %d", sizes.N(), c.n)
	}
	perf, err := c.source()
	if err == nil {
		if perf.N() != c.n {
			return HealthOK, fmt.Errorf("comm: directory reports %d processors, want %d", perf.N(), c.n)
		}
		c.mu.Lock()
		// An unchanged table keeps the existing cached clone; only the
		// timestamp is refreshed. The cache holds the RAW snapshot —
		// calibration is overlaid at build time, so an estimate that
		// loses trust later stops being applied to the cached table too.
		if c.lastPerf == nil || !c.lastPerf.Equal(perf) {
			c.lastPerf = perf.Clone()
		}
		c.lastPerfAt = c.cfg.Clock()
		c.mu.Unlock()
		return HealthOK, model.BuildInto(dst, c.calibrated(perf), sizes)
	}
	// Rung 2: the cached table, while it is young enough to beat
	// guessing. Cached tables are never mutated, so reading outside the
	// planning path is safe (calibrated overlays copy-on-write).
	c.mu.Lock()
	cached, at := c.lastPerf, c.lastPerfAt
	c.mu.Unlock()
	if cached != nil && c.cfg.StaleBound > 0 && c.cfg.Clock().Sub(at) <= c.cfg.StaleBound {
		return HealthStale, model.BuildInto(dst, c.calibrated(cached), sizes)
	}
	// Rung 3: no usable knowledge; the uniform model still yields a
	// valid, contention-free schedule structure.
	return HealthDegraded, model.BuildInto(dst, uniformPerf(c.n), sizes)
}

// noteServed records the rung that served an exchange — in the stats,
// the metric surface, the flight recorder, and (on a downward ladder
// transition) a triggered flight dump. ctx supplies the trace ID the
// flight event is tagged with; context.Background() means untraced.
func (c *Communicator) noteServed(ctx context.Context, h Health) {
	c.mu.Lock()
	prev := c.health
	c.health = h
	switch h {
	case HealthOK:
		c.stats.ServedFresh++
	case HealthStale:
		c.stats.ServedStale++
	case HealthDegraded:
		c.stats.ServedDegraded++
	}
	c.mu.Unlock()
	c.tel.noteRung(prev, h)
	fl := c.cfg.Flight
	if fl == nil {
		return
	}
	fl.Record("comm", rungEvent(h), obs.TraceFrom(ctx).TraceID, int64(prev), int64(h))
	if h > prev {
		// The ladder just stepped down: the events leading here are the
		// post-mortem, so capture them now (best-effort, rate-limited).
		fl.Trigger("health-ladder degradation")
	}
}

// rungEvent maps a rung to its constant flight-recorder event name.
func rungEvent(h Health) string {
	switch h {
	case HealthOK:
		return "served_fresh"
	case HealthStale:
		return "served_stale"
	case HealthDegraded:
		return "served_degraded"
	}
	return "served_unknown"
}

// tagResult marks a result produced below the fresh rung. It never
// mutates r, which may be the repeated-exchange cache's own value:
// below the fresh rung it returns a tagged copy.
func tagResult(r *sched.Result, h Health) *sched.Result {
	if h == HealthOK {
		return r
	}
	//hetvet:ignore hotpath the copy and tag happen only below the fresh rung; the steady state returns r unchanged
	tagged := *r
	//hetvet:ignore hotpath the copy and tag happen only below the fresh rung; the steady state returns r unchanged
	tagged.Algorithm += "+" + h.String()
	return &tagged
}

// plan schedules m with the configured scheduler — or, on the degraded
// rung, with the blind baseline — and counts the plan.
//
//hetvet:coldpath planning allocates by design; the repeated path reaches it only on a cache miss
func (c *Communicator) plan(ctx context.Context, m *model.Matrix, h Health, kind string) (*sched.Result, error) {
	scheduler := c.cfg.Scheduler
	if h == HealthDegraded {
		scheduler = c.cfg.BaselineScheduler
	}
	c.mu.Lock()
	c.stats.Plans++
	c.mu.Unlock()
	c.tel.plans.Inc()
	return c.timedSchedule(ctx, scheduler, m, h, kind)
}

// AllToAll plans a one-shot total exchange from a fresh directory
// snapshot with the configured scheduler. When the source fails it
// degrades along the fallback ladder instead of returning an error:
// the cached table (result tagged "+stale"), then the uniform-model
// caterpillar baseline ("+degraded"). Health reports the rung used.
func (c *Communicator) AllToAll(sizes *model.Sizes) (*sched.Result, error) {
	r, _, err := c.AllToAllHealth(sizes)
	return r, err
}

// AllToAllHealth is AllToAll returning the fallback-ladder rung that
// served *this* exchange. It exists for callers that share one
// communicator across many concurrent requests — the serving daemon —
// where reading Health() after the call races other exchanges and can
// misreport which rung produced a given plan.
func (c *Communicator) AllToAllHealth(sizes *model.Sizes) (*sched.Result, Health, error) {
	return c.AllToAllHealthCtx(context.Background(), sizes)
}

// AllToAllHealthCtx is AllToAllHealth carrying request-scoped trace
// correlation: when ctx holds an obs.ReqTrace, the planning pass is
// recorded as a span on that request's tree, and flight-recorder
// events are tagged with its trace ID.
func (c *Communicator) AllToAllHealthCtx(ctx context.Context, sizes *model.Sizes) (*sched.Result, Health, error) {
	r, _, h, err := c.planOneShot(ctx, sizes, "oneshot")
	return r, h, err
}

// planOneShot is the one-shot path AllToAllHealthCtx and ExecuteCtx
// share: a snapshot through the fallback ladder into a new matrix, a
// plan, and the served rung noted. It returns the matrix the plan was
// computed for alongside the tagged result.
func (c *Communicator) planOneShot(ctx context.Context, sizes *model.Sizes, kind string) (*sched.Result, *model.Matrix, Health, error) {
	m := new(model.Matrix)
	h, err := c.snapshotInto(m, sizes)
	if err != nil {
		return nil, nil, h, err
	}
	r, err := c.plan(ctx, m, h, kind)
	if err != nil {
		return nil, nil, h, err
	}
	c.noteServed(ctx, h)
	return tagResult(r, h), m, h, nil
}

// AllToAllBatch plans one total exchange per size vector concurrently
// on up to workers goroutines (0 = GOMAXPROCS, 1 = sequential). Each
// exchange takes its own directory snapshot and is planned
// independently with the configured scheduler — the batch analogue of
// calling AllToAll once per entry, for servers that plan many
// concurrent collectives per tick. Results are returned in input
// order; on failure the lowest-index error is reported, matching the
// sequential loop.
func (c *Communicator) AllToAllBatch(sizes []*model.Sizes, workers int) ([]*sched.Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sizes) {
		workers = len(sizes)
	}
	out := make([]*sched.Result, len(sizes))
	if len(sizes) == 0 {
		return out, nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errIdx   = len(sizes)
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sizes) {
					return
				}
				r, err := c.AllToAll(sizes[i])
				if err != nil {
					errMu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
					continue
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// AllToAllRepeated plans a total exchange for a workload that repeats
// (Section 6.2). Every call takes a snapshot through the fallback
// ladder and builds the cost matrix. When the matrix equals the one the
// cached plan was computed for, the cached plan is served again;
// otherwise the configured Scheduler plans afresh and the new plan
// replaces the cache. The returned result always reflects current
// network conditions.
//
// Results are shared, not copied: a fresh-rung call returns the cached
// value itself, the same one earlier and later calls return, so callers
// must treat the result — its Schedule and Steps included — as
// read-only. Below the fresh rung the result is a tagged copy, and
// degraded-rung plans, built from the uniform model, never enter the
// cache.
//
// Planning runs outside the cache mutex, so concurrent repeated calls
// plan in parallel; each install is generation-checked, so a plan that
// raced an Invalidate is served but never cached.
//
//hetvet:hotpath the cache hit is allocation-free (see TestRepeatedScratchZeroAlloc)
func (c *Communicator) AllToAllRepeated(sizes *model.Sizes) (*sched.Result, error) {
	m := c.matrices.Get().(*model.Matrix)
	h, err := c.snapshotInto(m, sizes)
	if err != nil {
		c.matrices.Put(m)
		return nil, err
	}
	c.mu.Lock()
	gen, last, cached := c.planGen, c.lastMatrix, c.lastResult
	c.mu.Unlock()
	switch {
	case h == HealthDegraded || last == nil:
		// nothing to reuse: a blind plan never touches the cache
	case !last.Equal(m):
		c.mu.Lock()
		c.stats.Recomputes++
		c.mu.Unlock()
		c.tel.recomputes.Inc()
	default:
		c.mu.Lock()
		hit := c.planGen == gen // an Invalidate since the read drops the cached plan
		if hit {
			c.stats.Repairs++
		}
		c.mu.Unlock()
		if hit {
			c.matrices.Put(m)
			c.tel.repairs.Inc()
			c.noteServed(context.Background(), h)
			return tagResult(cached, h), nil
		}
	}
	return c.planRepeated(m, h, gen)
}

// planRepeated is AllToAllRepeated's cache miss: plan m, and install
// the plan with m as its key unless m came from the uniform model or an
// Invalidate intervened. Either way m's buffer has an owner afterwards —
// the cache or the pool.
//
//hetvet:coldpath a cache miss plans cold; the scheduler allocates by design
func (c *Communicator) planRepeated(m *model.Matrix, h Health, gen uint64) (*sched.Result, error) {
	r, err := c.plan(context.Background(), m, h, "repeated")
	if err != nil || h == HealthDegraded || !c.install(gen, m, r) {
		c.matrices.Put(m)
	}
	if err != nil {
		return nil, err
	}
	c.noteServed(context.Background(), h)
	return tagResult(r, h), nil
}

// install publishes a plan and its matrix into the cache iff the plan
// generation is still gen, and reports whether it did.
func (c *Communicator) install(gen uint64, m *model.Matrix, r *sched.Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.planGen != gen {
		return false
	}
	c.lastMatrix, c.lastResult = m, r
	return true
}

// Invalidate drops the cached plan so the next repeated call replans
// from scratch. Bumping the plan generation also dooms any plan in
// flight: its generation-checked install fails, so the dropped cache
// is never refilled from before the Invalidate.
func (c *Communicator) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.planGen++
	c.lastMatrix = nil
	c.lastResult = nil
}

// Quality returns a result's completion relative to its lower bound
// (1 for degenerate empty problems).
func (c *Communicator) Quality(r *sched.Result) float64 {
	if r.LowerBound == 0 {
		return 1
	}
	return r.CompletionTime() / r.LowerBound
}

// Drifted reports the largest relative per-pair cost change between
// the cached matrix and a fresh snapshot built with the same sizes; it
// returns 0 when nothing is cached. Applications can use it to decide
// when to Invalidate.
func (c *Communicator) Drifted(sizes *model.Sizes) (float64, error) {
	c.mu.Lock()
	last := c.lastMatrix // matrices are never mutated once cached
	c.mu.Unlock()
	if last == nil {
		return 0, nil
	}
	// Drift is measured against whatever rung the ladder serves; a
	// degraded (uniform) matrix legitimately reads as heavy drift.
	m := new(model.Matrix)
	if _, err := c.snapshotInto(m, sizes); err != nil {
		return 0, err
	}
	worst := 0.0
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			old := last.At(i, j)
			if old == 0 {
				continue
			}
			if rel := math.Abs(m.At(i, j)-old) / old; rel > worst {
				worst = rel
			}
		}
	}
	return worst, nil
}
