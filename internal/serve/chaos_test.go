package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// TestServeOverloadChaos is the X15 overload scenario (EXPERIMENTS.md)
// and this PR's acceptance test: a storm of concurrent clients at many
// times the daemon's sustained admission capacity, with a directory
// outage injected mid-storm. The daemon must convert overload into
// explicit outcomes — every request resolves as served, shed (with a
// retry-after), or expired; nothing hangs and nothing is silently
// dropped — while the latency of what it does admit stays bounded
// (that is the point of shedding), the outage is ridden on the
// fallback ladder, and the daemon returns to HealthOK with an empty
// queue once the storm stops.
func TestServeOverloadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("overload chaos storm skipped in -short mode")
	}
	const (
		planCost   = 10 * time.Millisecond // injected planning latency
		clients    = 40
		perClient  = 25
		hotSeeds   = 8 // Zipf-ish hot set; duplicates coalesce and cache
		deadlineMS = 400
	)
	perf := perfTable(6)
	var outage atomic.Bool
	source := func() (*netmodel.Perf, error) {
		if outage.Load() {
			return nil, fmt.Errorf("injected directory outage")
		}
		time.Sleep(planCost)
		return perf.Clone(), nil
	}
	var gen atomic.Uint64
	gen.Store(1)
	// The observability surface rides the storm: the flight recorder is
	// armed (and wired into the communicator, which triggers a dump when
	// the injected outage degrades the health ladder), and the tail
	// sampler's cap exceeds the storm size so every interesting request
	// — shed, expired, errored, or tail-latency — must be retained.
	dumpPath := filepath.Join(t.TempDir(), "serve-chaos-flight.dump")
	flight := obs.NewFlightRecorder(2048, nil)
	flight.SetDumpPath(dumpPath)
	tail := obs.NewTailSampler(2048)
	c, err := comm.New(6, source, comm.Config{Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	// Queue ≤ workers keeps the worst queue wait within one extra p95
	// of service time — that is what makes the admitted-latency bound
	// below achievable by construction rather than by luck.
	d, err := NewDaemon(c, func() (uint64, error) { return gen.Load(), nil }, Config{
		Workers:       4,
		Queue:         4,
		GenInterval:   5 * time.Millisecond,
		MaxRetryAfter: time.Second,
		Flight:        flight,
		Tail:          tail,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv, addr := startTestServer(t, d, ServerConfig{})
	defer srv.Close()

	mkReq := func(id uint64, seed int64) PlanRequest {
		return PlanRequest{ID: id, P: 6, Kind: PatternRandom,
			Bytes: 4096, Seed: seed, DeadlineMS: deadlineMS}
	}

	// Phase A: uncontended baseline p95 over cache-busting requests.
	base, err := Dial(context.Background(), addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var baseLat []time.Duration
	for i := 0; i < 30; i++ {
		start := time.Now()
		resp, err := base.Plan(context.Background(), mkReq(uint64(i), int64(1000+i)))
		if err != nil || !resp.OK {
			t.Fatalf("baseline request %d failed: %v %+v", i, err, resp)
		}
		baseLat = append(baseLat, time.Since(start))
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	p95Base := percentile(baseLat, 95)

	// Phase B: the storm — `clients` concurrent connections, each
	// hammering requests back to back, which is roughly 10× what
	// Workers×planCost can sustain. 70% of requests draw from a hot
	// seed set (they should coalesce or hit the cache); 30% are unique
	// (they force real planning passes and fill the queue).
	type tally struct {
		served, shed, expired, drained int
		coalesced, cached, nonFresh    int
		lat                            []time.Duration
		errs                           []error
		interesting                    []string // trace IDs of shed/expired/drained responses
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tl := &tallies[g]
			rng := rand.New(rand.NewSource(int64(g)))
			cl, err := Dial(context.Background(), addr, 2*time.Second)
			if err != nil {
				tl.errs = append(tl.errs, err)
				return
			}
			defer cl.Close()
			for k := 0; k < perClient; k++ {
				seed := int64(rng.Intn(hotSeeds))
				if rng.Intn(10) < 3 {
					seed = int64(10_000 + g*perClient + k) // cache buster
				}
				start := time.Now()
				resp, err := cl.Plan(context.Background(), mkReq(uint64(g*perClient+k), seed))
				if err != nil {
					tl.errs = append(tl.errs, fmt.Errorf("client %d req %d: %w", g, k, err))
					return
				}
				switch resp.Status {
				case PlanServed:
					tl.served++
					tl.lat = append(tl.lat, time.Since(start))
					if resp.Coalesced {
						tl.coalesced++
					}
					if resp.Cached {
						tl.cached++
					}
					if resp.Health != "ok" {
						tl.nonFresh++
					}
				case PlanShed:
					tl.shed++
					tl.interesting = append(tl.interesting, resp.Trace)
					if resp.RetryAfterMS <= 0 {
						tl.errs = append(tl.errs, fmt.Errorf("shed without retry-after: %+v", resp))
						return
					}
				case PlanExpired:
					tl.expired++
					tl.interesting = append(tl.interesting, resp.Trace)
					if resp.RetryAfterMS <= 0 {
						tl.errs = append(tl.errs, fmt.Errorf("expired without retry-after: %+v", resp))
						return
					}
				case PlanDraining:
					tl.drained++
					tl.interesting = append(tl.interesting, resp.Trace)
				default:
					tl.errs = append(tl.errs, fmt.Errorf("unexpected outcome: %+v", resp))
					return
				}
			}
		}(g)
	}

	// Mid-storm directory kill: once the storm is well underway, fail
	// the source until the ladder has demonstrably served non-fresh
	// plans, then restore it.
	flipperDone := make(chan struct{})
	go func() {
		defer close(flipperDone)
		deadline := time.Now().Add(5 * time.Second)
		for d.Snapshot().Served < 100 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		outage.Store(true)
		for time.Now().Before(deadline) {
			st := d.Snapshot()
			if st.ServedStale+st.ServedDegraded >= 3 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		outage.Store(false)
	}()
	wg.Wait()
	<-flipperDone

	var total tally
	for g := range tallies {
		tl := &tallies[g]
		for _, err := range tl.errs {
			t.Error(err)
		}
		total.served += tl.served
		total.shed += tl.shed
		total.expired += tl.expired
		total.drained += tl.drained
		total.coalesced += tl.coalesced
		total.cached += tl.cached
		total.nonFresh += tl.nonFresh
		total.lat = append(total.lat, tl.lat...)
		total.interesting = append(total.interesting, tl.interesting...)
	}
	if t.Failed() {
		t.Fatal("client-side protocol violations above")
	}
	sent := clients * perClient
	accounted := total.served + total.shed + total.expired + total.drained
	if accounted != sent {
		t.Fatalf("outcomes account for %d of %d requests — silent drops", accounted, sent)
	}
	if total.shed == 0 {
		t.Fatal("a 10x storm shed nothing; admission control is not engaging")
	}
	if total.coalesced+total.cached == 0 {
		t.Fatal("hot duplicate requests neither coalesced nor hit the cache")
	}
	if total.nonFresh == 0 {
		t.Fatal("mid-storm directory outage never surfaced a stale/degraded serve")
	}

	// Overload must not ruin the requests the daemon chose to admit:
	// p95 of served requests within 2× the uncontended p95 (plus a
	// fixed allowance for scheduler jitter under -race).
	p95Storm := percentile(total.lat, 95)
	if limit := 2*p95Base + 25*time.Millisecond; p95Storm > limit {
		t.Fatalf("admitted p95 %v exceeds %v (uncontended p95 %v)", p95Storm, limit, p95Base)
	}

	// Recovery: queue empties and health returns to ok promptly after
	// the storm stops.
	waitFor(t, "queue to empty after the storm", func() bool {
		st := d.Snapshot()
		return st.QueueDepth == 0 && st.InFlight == 0
	})
	cl, err := Dial(context.Background(), addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Plan(context.Background(), mkReq(1, 424242))
	if err != nil || !resp.OK || resp.Health != "ok" {
		t.Fatalf("post-storm request not served fresh: %v %+v", err, resp)
	}
	if d.Health() != comm.HealthOK {
		t.Fatalf("daemon health %v after recovery, want ok", d.Health())
	}

	// Tail sampling: every interesting request — the ones a post-mortem
	// would ask about — must have its span tree retained, and the
	// sampler must stay inside its fixed cap while doing so.
	for _, hex := range total.interesting {
		id, ok := obs.ParseTraceID(hex)
		if !ok {
			t.Fatalf("interesting response carried malformed trace ID %q", hex)
		}
		if !tail.Has(id) {
			t.Fatalf("span tree for interesting trace %s not retained (%d retained of cap %d)",
				hex, tail.Len(), tail.Cap())
		}
	}
	if tail.Len() > tail.Cap() {
		t.Fatalf("tail sampler holds %d traces over its cap %d", tail.Len(), tail.Cap())
	}

	// The mid-storm outage degraded the health ladder, which must have
	// tripped an automatic flight-recorder dump.
	if _, err := os.Stat(dumpPath); err != nil {
		t.Fatalf("health degradation did not dump the flight recorder: %v", err)
	}

	// When the CI harness asks for artifacts, export the evidence: the
	// flight ring, the Perfetto trace file, and the statusz snapshot.
	if dir := os.Getenv("HETSCHED_CHAOS_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeArtifact := func(name string, render func(w io.Writer) error) {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := render(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		writeArtifact("serve-chaos-flight.dump", flight.Dump)
		writeArtifact("serve-chaos-traces.json", tail.WritePerfetto)
		writeArtifact("serve-chaos-statusz.txt", func(w io.Writer) error {
			d.Statusz().RenderText(w)
			return nil
		})
		t.Logf("chaos artifacts written to %s", dir)
	}

	st := d.Snapshot()
	t.Logf("storm: sent=%d served=%d shed=%d expired=%d coalesced=%d cached=%d nonFresh=%d p95Base=%v p95Storm=%v",
		sent, total.served, total.shed, total.expired, total.coalesced, total.cached,
		total.nonFresh, p95Base, p95Storm)
	t.Logf("daemon: %+v", st)
}

// percentile returns the q-th percentile (nearest-rank) of ds.
func percentile(ds []time.Duration, q int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := make([]time.Duration, len(ds))
	copy(s, ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := (q*len(s) + 99) / 100
	if k < 1 {
		k = 1
	}
	return s[k-1]
}
