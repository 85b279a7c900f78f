package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"hetsched"
	"hetsched/internal/directory"
	"hetsched/internal/faults"
	"hetsched/internal/sched"
)

// exchange-drift: the adaptive data plane. Exchanges of the paper's
// Fig 12 servers pattern run through Communicator.Execute over
// in-process pipes that a pair-delay injector slows to a drifting
// emulated network. Each communicator reads its directory over TCP,
// calibrates from measured transfers, and pushes its estimates back.
//
// One P=12 exchange's time hangs on the few links its two servers
// send over, so a single table would make the run's latency mostly a
// property of the seed. The run therefore cycles over exSites
// independent networks, and on each the server role passes in turn
// between exRoles disjoint pairs of processors. A fixed set of pairs
// keeps every link's message sizes recurring, which is what the
// calibrator fits: a link that had only ever carried 1 kB and suddenly
// carried 1 MB would be priced by an extrapolated bandwidth.
const (
	exP       = 12
	exSites   = 8       // independent networks, used in turn
	exRoles   = 3       // server pairs per network, used in turn
	exEvents  = 2 * exP // drift events per network
	exHorizon = 16      // drift events start and ramp within this many ticks (exchanges)
	exSpeedup = 1000    // see fastTable
	// exSlack scales a transfer's modeled time into its attempt
	// deadline. Flapping drift events switch a link between its base
	// and up to 6x slower every few exchanges, which no calibrator can
	// track; under exec's default Slack of 4 such transfers timed out
	// three times and their receivers were declared dead.
	exSlack = 16
)

var exchangeDrift = workload{
	name:  "exchange-drift",
	tailQ: 0.90,
	warm:  limit{ops: exSites},
	setup: setupExchangeDrift,
}

// exSite is one network: its directory, communicator, calibrator and
// emulated links.
type exSite struct {
	dsrv     *hetsched.DirectoryServer
	rc       *hetsched.ResilientDirectoryClient
	comm     *hetsched.Communicator
	cal      *hetsched.Calibrator
	drifter  *hetsched.NetworkDrifter
	injector *hetsched.PairDelayInjector
	dir      *dirTap
	patterns []*hetsched.Sizes // one per server pair
	runs     int               // exchanges run so far

	// counters at the start of the measured run, read by layers
	stats0  hetsched.CommStats
	ctr0    hetsched.ResilientCounters
	faults0 faults.PairDelayCounts
	calib0  hetsched.CalibSummary
}

type exchangeDriftSys struct {
	rec   *recorder
	sites []*exSite
	ecfg  hetsched.ExecConfig
	seq   uint64

	sizes      *hetsched.Sizes // the running exchange's pattern
	delivered  atomic.Int64    // payloads that reached the Deliver sink
	misdeliver atomic.Int64    // payloads of the wrong length

	// measured-run state, reset by begin
	reports []*hetsched.DeliveryReport
	overLB  []float64
}

func setupExchangeDrift(seed int64, rec *recorder, _ string) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &exchangeDriftSys{rec: rec}
	for i := 0; i < exSites; i++ {
		site, err := newExSite(rng, rec)
		if site != nil {
			s.sites = append(s.sites, site)
		}
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	s.ecfg = hetsched.ExecConfig{Slack: exSlack, Seed: 1, Deliver: s.deliver}
	if rec != nil {
		s.ecfg.Replan = func(m *hetsched.Matrix, residual sched.Pattern, alive func(int) bool) (*hetsched.Result, error) {
			start := time.Now()
			res, err := sched.ReplanResidual(m, residual, alive)
			rec.child("sched", "replan", start, time.Now())
			return res, err
		}
	}
	return s, nil
}

// newExSite builds one network. On error it returns what it built so
// far, for the caller to close.
func newExSite(rng *rand.Rand, rec *recorder) (*exSite, error) {
	perf := fastTable(hetsched.RandomPerf(rng, exP, hetsched.GustoGuided()), exSpeedup)
	drifter, err := hetsched.NewNetworkDrifter(perf, faults.RandomDriftEvents(rng, exP, exEvents, exHorizon))
	if err != nil {
		return nil, err
	}
	injector, err := hetsched.NewPairDelayInjector(hetsched.PairDelayConfig{
		Lookup: drifter.Lookup, TimeScale: 1})
	if err != nil {
		return nil, err
	}
	store, err := hetsched.NewDirectory(perf, nil)
	if err != nil {
		return nil, err
	}
	site := &exSite{drifter: drifter, injector: injector, dsrv: hetsched.NewDirectoryServer(store)}
	// The servers pattern puts processors 0 and 1 in the server role;
	// relabel so that each role goes to a different pair.
	base := hetsched.WorkloadSizes(rng, hetsched.DefaultWorkload(hetsched.WorkloadServers, exP))
	perm := rng.Perm(exP)
	for r := 0; r < exRoles; r++ {
		site.patterns = append(site.patterns, permuted(base, perm))
		perm = append(perm[2:], perm[:2]...)
	}
	if rec != nil {
		site.dir = &dirTap{}
		site.dsrv.SetConnWrapper(site.dir.wrap)
	}
	daddr, err := site.dsrv.Listen("127.0.0.1:0")
	if err != nil {
		return site, err
	}
	site.rc = hetsched.NewResilientClient(daddr, hetsched.ResilientConfig{
		DialTimeout: 5 * time.Second, RequestTimeout: 5 * time.Second})
	prior, _, _, err := site.rc.Snapshot()
	if err != nil {
		return site, fmt.Errorf("initial snapshot: %w", err)
	}
	if site.cal, err = hetsched.NewCalibrator(prior, hetsched.CalibConfig{}); err != nil {
		return site, err
	}
	source := hetsched.CommSource(site.rc.Source(true))
	scheduler := hetsched.OpenShop()
	sink := directory.CalibrateSink(site.rc)
	if rec != nil {
		source = rec.timeSource(source)
		scheduler = timedScheduler{inner: scheduler, rec: rec}
		sink = rec.timeSink(sink)
	}
	site.comm, err = hetsched.NewCommunicator(exP, source, hetsched.CommConfig{
		Scheduler: scheduler, Calibrator: site.cal, CalibSink: sink})
	return site, err
}

// fastTable divides every latency and multiplies every bandwidth by k.
// The emulated network runs in wall-clock units (TimeScale 1): the
// calibrator fits measured wall-clock timings, so the directory and
// the emulation must share a time unit, and a GUSTO-guided table made
// 1000x faster puts one exchange at about a tenth of a second.
func fastTable(p *hetsched.Perf, k float64) *hetsched.Perf {
	out := p.Clone()
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.N(); j++ {
			if i != j {
				pp := p.At(i, j)
				out.Set(i, j, hetsched.PairPerf{Latency: pp.Latency / k, Bandwidth: pp.Bandwidth * k})
			}
		}
	}
	return out
}

// permuted relabels processors: i becomes perm[i].
func permuted(s *hetsched.Sizes, perm []int) *hetsched.Sizes {
	out := hetsched.UniformSizes(s.N(), 0)
	for i := range perm {
		for j := range perm {
			if i != j {
				out.Set(perm[i], perm[j], s.At(i, j))
			}
		}
	}
	return out
}

func (s *exchangeDriftSys) deliver(src, dst int, payload []byte) {
	s.delivered.Add(1)
	if int64(len(payload)) != s.sizes.At(src, dst) {
		s.misdeliver.Add(1)
	}
}

func (s *exchangeDriftSys) begin() {
	for _, site := range s.sites {
		site.stats0, site.ctr0 = site.comm.Stats(), site.rc.Counters()
		site.faults0, site.calib0 = site.injector.Counts(), site.cal.Summarize()
	}
	s.reports, s.overLB = s.reports[:0], s.overLB[:0]
}

func (s *exchangeDriftSys) run(lim limit) *outcome {
	o := &outcome{}
	start := time.Now()
	for n := 0; !lim.done(start, n); n++ {
		s.seq++
		site := s.sites[s.seq%exSites]
		s.sizes = site.patterns[site.runs%exRoles]
		site.runs++
		var id uint64
		if s.rec != nil {
			id = s.rec.newOp()
		}
		truth := site.drifter.Current()
		trusted := site.cal.Summarize().TrustedPairs
		before, bad := s.delivered.Load(), s.misdeliver.Load()
		// An exchange closes its transport when it ends, so each one
		// gets fresh in-process pipes behind the site's emulated links.
		mem, err := hetsched.NewMemTransport(exP)
		if err != nil {
			o.failed++
			o.problemf("exchange %d: transport: %v", s.seq, err)
			continue
		}
		mem.SetPairWrapper(site.injector.WrapPair)
		t0 := time.Now()
		rep, res, err := runExchange(site.comm, mem, s.sizes, s.ecfg)
		lat := time.Since(t0)
		if s.rec != nil {
			s.rec.op(id, "exchange", t0, t0.Add(lat))
		}
		site.drifter.Advance()
		if err != nil {
			o.failed++
			o.problemf("exchange %d: %v", s.seq, err)
			continue
		}
		got := s.delivered.Load() - before
		switch {
		case !rep.Accounted() || rep.AbandonedBytes != 0 || len(rep.Dead) != 0:
			o.failed++
			o.problemf("exchange %d: accounted %v, abandoned %d bytes, dead %v",
				s.seq, rep.Accounted(), rep.AbandonedBytes, rep.Dead)
			continue
		case got != exP*(exP-1) || s.misdeliver.Load() != bad:
			o.failed++
			o.problemf("exchange %d: %d payloads delivered (want %d), %d of the wrong size",
				s.seq, got, exP*(exP-1), s.misdeliver.Load()-bad)
			continue
		case !(res.LowerBound > 0 && res.CompletionTime() >= res.LowerBound*(1-1e-12) &&
			res.CompletionTime() <= 2*res.LowerBound*(1+1e-12)):
			o.failed++
			o.problemf("exchange %d: t_max %g outside [t_lb, 2 t_lb] for t_lb %g",
				s.seq, res.CompletionTime(), res.LowerBound)
			continue
		}
		m, err := hetsched.Build(truth, s.sizes)
		if err != nil {
			o.failed++
			o.problemf("exchange %d: true model: %v", s.seq, err)
			continue
		}
		st := site.comm.Stats()
		// A plan made on a calibrated table depends on measured
		// wall-clock timings, so only plans made before the site's
		// calibrator trusted any pair must repeat across passes.
		o.ops = append(o.ops, opRecord{id: s.seq, lat: lat, tmax: res.CompletionTime(),
			tlb: res.LowerBound, fixed: trusted == 0,
			stats: []int{st.Plans, st.ServedFresh, st.ServedStale, st.ServedDegraded, st.CalibBatches}})
		s.reports = append(s.reports, rep)
		s.overLB = append(s.overLB, rep.Wall.Seconds()/m.LowerBound())
	}
	o.busy = time.Since(start)
	return o
}

// finish reports the executed exchanges against the true network.
func (s *exchangeDriftSys) finish(*outcome) []metric {
	return []metric{
		{Name: "exec_over_lb", Unit: "ratio", Value: quantile(s.overLB, 0.5)},
		{Name: "goodput_mb_s", Unit: "MB/s", Value: s.goodput()},
	}
}

// goodput is payload megabytes delivered per second of exchange wall
// time over the measured run.
func (s *exchangeDriftSys) goodput() float64 {
	var delivered, wall float64
	for _, r := range s.reports {
		delivered += float64(r.DeliveredBytes)
		wall += r.Wall.Seconds()
	}
	return delivered / wall / 1e6
}

func (s *exchangeDriftSys) layers(o *outcome, m measure) []metric {
	snaps := inUnit(s.rec.durations("directory", "snapshot"), time.Microsecond)
	pushes := inUnit(s.rec.durations("directory", "calibrate_push"), time.Microsecond)
	scheds := inUnit(s.rec.durations("sched", "schedule"), time.Microsecond)
	replans := inUnit(s.rec.durations("sched", "replan"), time.Microsecond)
	var walls, ratios []float64
	var retries, retried, rounds, dups int64
	for _, r := range s.reports {
		walls = append(walls, float64(r.Wall)/float64(time.Millisecond))
		ratios = append(ratios, r.Ratio())
		retries += int64(r.Retries)
		retried += r.RetriedBytes
		rounds += int64(r.Rounds)
		dups += int64(r.DupSuppressed)
	}
	var snapBytes int64
	var snapN, dirRetries, plans, batches, pushErrs, conns, trusted int
	var rejected uint64
	var slept time.Duration
	for _, site := range s.sites {
		b, n := site.dir.counts()
		snapBytes, snapN = snapBytes+b, snapN+n
		dirRetries += site.rc.Counters().Retries - site.ctr0.Retries
		st := site.comm.Stats()
		plans += st.Plans - site.stats0.Plans
		batches += st.CalibBatches - site.stats0.CalibBatches
		pushErrs += st.CalibPushErrors - site.stats0.CalibPushErrors
		fc := site.injector.Counts()
		conns += fc.Conns - site.faults0.Conns
		slept += fc.Slept - site.faults0.Slept
		cs := site.cal.Summarize()
		trusted += cs.TrustedPairs
		rejected += cs.Rejected - site.calib0.Rejected
	}
	n := float64(max(len(s.reports), 1))
	return []metric{
		{Name: "directory.snapshot_us_p50", Value: quantile(snaps, 0.5)},
		{Name: "directory.snapshot_us_p99", Value: quantile(snaps, 0.99)},
		{Name: "directory.snapshot_calls", Value: float64(len(snaps))},
		{Name: "directory.snapshot_kb", Value: float64(snapBytes) / 1024 / float64(max(snapN, 1))},
		{Name: "directory.calibrate_push_us", Value: quantile(pushes, 0.5)},
		{Name: "directory.retries", Value: float64(dirRetries)},
		{Name: "comm.plans", Value: float64(plans)},
		{Name: "comm.calib_batches", Value: float64(batches)},
		{Name: "comm.calib_push_errors", Value: float64(pushErrs)},
		{Name: "sched.schedule_us_p50", Value: quantile(scheds, 0.5)},
		{Name: "sched.schedule_us_p99", Value: quantile(scheds, 0.99)},
		{Name: "sched.schedule_calls", Value: float64(len(scheds))},
		{Name: "sched.replan_us", Value: quantile(replans, 0.5)},
		{Name: "sched.replans", Value: float64(len(replans))},
		{Name: "exec.wall_ms", Value: quantile(walls, 0.5)},
		{Name: "exec.wall_over_modeled", Value: quantile(ratios, 0.5)},
		{Name: "exec.over_lb", Value: quantile(s.overLB, 0.5)},
		{Name: "exec.goodput_mb_s", Value: s.goodput()},
		{Name: "exec.retries", Value: float64(retries)},
		{Name: "exec.retried_bytes", Value: float64(retried)},
		{Name: "exec.rounds", Value: float64(rounds) / n},
		{Name: "exec.dup_suppressed", Value: float64(dups)},
		{Name: "exec.cpu_ms_per_exchange", Value: float64(m.cpu) / float64(time.Millisecond) / n},
		{Name: "faults.sleep_ms_per_exchange", Value: float64(slept) / float64(time.Millisecond) / n},
		{Name: "faults.conns", Value: float64(conns)},
		{Name: "calib.trusted_share", Value: float64(trusted) / float64(exSites*exP*(exP-1))},
		{Name: "calib.rejected_samples", Value: float64(rejected)},
	}
}

func (s *exchangeDriftSys) close() error {
	var errs []error
	for _, site := range s.sites {
		if site.rc != nil {
			errs = append(errs, site.rc.Close())
		}
		errs = append(errs, site.dsrv.Close())
	}
	return errors.Join(errs...)
}
