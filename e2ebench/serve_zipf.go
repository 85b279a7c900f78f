package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hetsched"
	"hetsched/internal/model"
)

// serve-zipf: the plan service as `hetpland -dir` runs it, in one
// process. A directory server holds a GUSTO-guided random table; the
// daemon plans through a strict resilient-client source whose
// generation is the directory version; closed-loop clients ask over
// loopback TCP for 1 MB random-kind patterns drawn Zipf(s=1.01) from
// a fixed set of pattern seeds, so some requests hit the plan cache
// and the rest plan from a fresh directory snapshot.
const (
	zipfP       = 50
	zipfBytes   = 1 << 20
	zipfKeys    = 2000
	zipfS       = 1.01
	zipfClients = 2
	zipfChecked = 16 // patterns re-planned locally after the run
)

var serveZipf = workload{
	name:  "serve-zipf",
	tailQ: 0.99,
	warm:  limit{dur: time.Second},
	setup: setupServeZipf,
}

type zipfClient struct {
	idx  uint64
	cl   *hetsched.PlanClient
	zipf *rand.Zipf
	seq  uint64
}

type serveZipfSys struct {
	rec        *recorder
	perf       *hetsched.Perf
	keyBase    int64
	dsrv       *hetsched.DirectoryServer
	rc         *hetsched.ResilientDirectoryClient
	comm       *hetsched.Communicator
	daemon     *hetsched.PlanDaemon
	psrv       *hetsched.PlanServer
	clients    []*zipfClient
	dir        *dirTap
	plan       *planTap
	servedTMax map[int64]float64 // pattern seed -> t_max first served
	order      []int64           // pattern seeds in first-served order

	// measured-run state, reset by begin
	stats0 hetsched.CommStats
	ctr0   hetsched.ResilientCounters
	resps  []zipfResp
}

// zipfResp is what layers needs from each measured response.
type zipfResp struct {
	id        uint64
	rtt       time.Duration
	cached    bool
	coalesced bool
	queueMS   float64
}

func setupServeZipf(seed int64, rec *recorder, out string) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serveZipfSys{rec: rec, servedTMax: map[int64]float64{}}
	s.perf = hetsched.RandomPerf(rng, zipfP, hetsched.GustoGuided())
	s.keyBase = rng.Int63n(1 << 40)
	store, err := hetsched.NewDirectory(s.perf, nil)
	if err != nil {
		return nil, err
	}
	s.dsrv = hetsched.NewDirectoryServer(store)
	if rec != nil {
		s.dir = &dirTap{}
		s.dsrv.SetConnWrapper(s.dir.wrap)
	}
	daddr, err := s.dsrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.rc = hetsched.NewResilientClient(daddr, hetsched.ResilientConfig{
		DialTimeout: 5 * time.Second, RequestTimeout: 5 * time.Second})
	if _, _, _, err := s.rc.Snapshot(); err != nil {
		return nil, errors.Join(fmt.Errorf("initial snapshot: %w", err), s.close())
	}
	source := hetsched.CommSource(s.rc.Source(true))
	scheduler := hetsched.OpenShop()
	if rec != nil {
		source = rec.timeSource(source)
		scheduler = timedScheduler{inner: scheduler, rec: rec}
	}
	flight := hetsched.NewFlightRecorder(1024, nil)
	flight.SetDumpPath(filepath.Join(out, "flight-serve-zipf.dump"))
	if s.comm, err = hetsched.NewCommunicator(zipfP, source, hetsched.CommConfig{
		Scheduler: scheduler, Flight: flight}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.daemon, err = hetsched.NewPlanDaemon(s.comm, s.rc.Version, hetsched.PlanDaemonConfig{
		Workers:         runtime.NumCPU(),
		Queue:           64,
		DefaultDeadline: time.Second,
		MaxDeadline:     10 * time.Second,
		GenInterval:     250 * time.Millisecond,
		CacheCap:        256,
		DrainTimeout:    2 * time.Second,
		Flight:          flight,
	}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	scfg := hetsched.PlanServerConfig{IdleTimeout: 2 * time.Minute}
	if rec != nil {
		s.plan = newPlanTap()
		scfg.WrapConn = s.plan.wrap
	}
	s.psrv = hetsched.NewPlanServer(s.daemon, scfg)
	paddr, err := s.psrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	for i := 0; i < zipfClients; i++ {
		cl, err := hetsched.DialPlanService(context.Background(), paddr, 5*time.Second)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		crng := rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1))
		s.clients = append(s.clients, &zipfClient{idx: uint64(i), cl: cl,
			zipf: rand.NewZipf(crng, zipfS, 1, zipfKeys-1)})
	}
	return s, nil
}

type zipfOp struct {
	rec  opRecord
	resp zipfResp
	seed int64
	err  string
}

func (s *serveZipfSys) begin() {
	s.stats0, s.ctr0, s.resps = s.comm.Stats(), s.rc.Counters(), s.resps[:0]
}

func (s *serveZipfSys) run(lim limit) *outcome {
	start := time.Now()
	results := make([][]zipfOp, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *zipfClient) {
			defer wg.Done()
			for n := 0; !lim.done(start, n); n++ {
				results[i] = append(results[i], s.request(c))
			}
		}(i, c)
	}
	wg.Wait()
	o := &outcome{busy: time.Since(start)}
	for _, rs := range results {
		for _, r := range rs {
			if r.err != "" {
				o.failed++
				o.problemf("request %#x: %s", r.rec.id, r.err)
				continue
			}
			if first, ok := s.servedTMax[r.seed]; !ok {
				s.servedTMax[r.seed] = r.rec.tmax
				s.order = append(s.order, r.seed)
			} else if first != r.rec.tmax {
				o.problemf("pattern %d served t_max %g, earlier %g", r.seed, r.rec.tmax, first)
			}
			o.ops = append(o.ops, r.rec)
			s.resps = append(s.resps, r.resp)
		}
	}
	return o
}

// finish checks the measured run against local planning and reports
// the plan cache's share of it.
func (s *serveZipfSys) finish(o *outcome) []metric {
	s.checkLocal(o)
	cached, coalesced := 0, 0
	for _, r := range s.resps {
		if r.cached {
			cached++
		}
		if r.coalesced {
			coalesced++
		}
	}
	n := float64(max(len(s.resps), 1))
	return []metric{
		{Name: "serve.cache_hit_share", Unit: "ratio", Value: float64(cached) / n},
		{Name: "serve.coalesced_share", Unit: "ratio", Value: float64(coalesced) / n},
	}
}

// request sends one plan request and checks the answer against
// Theorem 3: t_lb <= t_max <= 2 t_lb.
func (s *serveZipfSys) request(c *zipfClient) zipfOp {
	c.seq++
	seed := s.keyBase + int64(c.zipf.Uint64())
	req := hetsched.PlanRequest{ID: c.idx<<32 | c.seq, P: zipfP,
		Kind: "random", Bytes: zipfBytes, Seed: seed}
	start := time.Now()
	resp, err := servePlan(c.cl, req)
	rtt := time.Since(start)
	if s.rec != nil {
		s.rec.op(req.ID, "plan_request", start, start.Add(rtt))
	}
	op := zipfOp{seed: seed, rec: opRecord{id: req.ID, lat: rtt, tmax: resp.TMax, tlb: resp.TLB, fixed: true},
		resp: zipfResp{id: req.ID, rtt: rtt, cached: resp.Cached, coalesced: resp.Coalesced, queueMS: resp.QueueWaitMS}}
	switch {
	case err != nil:
		op.err = err.Error()
	case !resp.OK || resp.Status != "served":
		op.err = fmt.Sprintf("status %q: %s", resp.Status, resp.Error)
	case resp.Health != "ok":
		op.err = fmt.Sprintf("planned on the %q rung", resp.Health)
	case resp.ID != req.ID:
		op.err = fmt.Sprintf("answer for request %#x", resp.ID)
	case !(resp.TLB > 0 && resp.TMax >= resp.TLB*(1-1e-12) && resp.TMax <= 2*resp.TLB*(1+1e-12)):
		op.err = fmt.Sprintf("t_max %g outside [t_lb, 2 t_lb] for t_lb %g", resp.TMax, resp.TLB)
	}
	return op
}

// checkLocal re-plans the first patterns served with model.Build and
// open shop on the directory's table; the served t_max must match.
func (s *serveZipfSys) checkLocal(o *outcome) {
	for _, seed := range s.order[:min(len(s.order), zipfChecked)] {
		m, err := hetsched.Build(s.perf, randomSizes(zipfP, zipfBytes, seed))
		if err != nil {
			o.problemf("local model for pattern %d: %v", seed, err)
			continue
		}
		res, err := hetsched.OpenShop().Schedule(m)
		if err != nil {
			o.problemf("local open shop for pattern %d: %v", seed, err)
			continue
		}
		if got := s.servedTMax[seed]; got != res.CompletionTime() {
			o.problemf("pattern %d: served t_max %g, local open shop %g", seed, got, res.CompletionTime())
		}
	}
}

// randomSizes is the plan protocol's random-kind pattern: each
// off-diagonal size drawn from [1, bytes] by a generator seeded with
// the request's seed.
func randomSizes(p int, bytes, seed int64) *hetsched.Sizes {
	s := model.NewSizes(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				s.Set(i, j, 1+rng.Int63n(bytes))
			}
		}
	}
	return s
}

func (s *serveZipfSys) layers(o *outcome, _ measure) []metric {
	snaps := s.rec.durations("directory", "snapshot")
	scheds := s.rec.durations("sched", "schedule")
	snapBytes, snapN := s.dir.counts()
	reqB, respB, residence := s.plan.totals()
	var res, wire, queue, missRes, missQueue []float64
	cached, coalesced := 0, 0
	for _, r := range s.resps {
		span, ok := residence[r.id]
		if !ok {
			continue
		}
		s.rec.add(s.rec.nextID.Add(1), r.id, "serve", "residence", span[0], span[1])
		d := span[1].Sub(span[0])
		us := float64(d) / float64(time.Microsecond)
		res = append(res, us)
		wire = append(wire, float64(r.rtt-d)/float64(time.Microsecond))
		if r.cached {
			cached++
			continue
		}
		queue = append(queue, r.queueMS)
		if r.coalesced {
			coalesced++
			continue
		}
		missRes = append(missRes, us)
		missQueue = append(missQueue, r.queueMS*1000)
	}
	snapUS := inUnit(snaps, time.Microsecond)
	schedUS := inUnit(scheds, time.Microsecond)
	n := float64(len(s.resps))
	st := s.comm.Stats()
	return []metric{
		{Name: "directory.snapshot_us_p50", Value: quantile(snapUS, 0.5)},
		{Name: "directory.snapshot_us_p99", Value: quantile(snapUS, 0.99)},
		{Name: "directory.snapshot_calls", Value: float64(len(snaps))},
		{Name: "directory.snapshot_kb", Value: float64(snapBytes) / 1024 / float64(max(snapN, 1))},
		{Name: "directory.retries", Value: float64(s.rc.Counters().Retries - s.ctr0.Retries)},
		{Name: "serve.cache_hit_share", Value: float64(cached) / n},
		{Name: "serve.coalesced_share", Value: float64(coalesced) / n},
		{Name: "serve.queue_wait_ms_p50", Value: quantile(queue, 0.5)},
		{Name: "serve.queue_wait_ms_p99", Value: quantile(queue, 0.99)},
		{Name: "serve.residence_us_p50", Value: quantile(res, 0.5)},
		{Name: "serve.residence_us_p99", Value: quantile(res, 0.99)},
		{Name: "serve.wire_us", Value: quantile(wire, 0.5)},
		{Name: "serve.req_bytes", Value: float64(reqB) / float64(max(len(residence), 1))},
		{Name: "serve.resp_bytes", Value: float64(respB) / float64(max(len(residence), 1))},
		// A miss's residence is queue wait, one snapshot, one schedule and
		// the communicator's own work (model.Build included); means add.
		{Name: "comm.self_us", Value: mean(missRes) - mean(missQueue) - mean(snapUS) - mean(schedUS)},
		{Name: "comm.plans", Value: float64(st.Plans - s.stats0.Plans)},
		{Name: "sched.schedule_us_p50", Value: quantile(schedUS, 0.5)},
		{Name: "sched.schedule_us_p99", Value: quantile(schedUS, 0.99)},
		{Name: "sched.schedule_calls", Value: float64(len(scheds))},
	}
}

func (s *serveZipfSys) close() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.cl.Close())
	}
	if s.psrv != nil {
		errs = append(errs, s.psrv.Close())
	}
	if s.daemon != nil {
		s.daemon.Shutdown()
	}
	if s.rc != nil {
		errs = append(errs, s.rc.Close())
	}
	if s.dsrv != nil {
		errs = append(errs, s.dsrv.Close())
	}
	return errors.Join(errs...)
}
