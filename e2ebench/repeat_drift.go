package main

import (
	"fmt"
	"math/rand"
	"time"

	"hetsched"
	"hetsched/internal/netmodel"
)

// repeat-drift: Section 6.2 sensor-style applications. Each plans the
// same P=50 mixed exchange again and again with AllToAllRepeated while
// a bandwidth random walk steps once per call; each step is written
// into an in-process directory store that the application's
// communicator reads directly. Only planning runs: the repeated-plan
// cache, incremental repair, the assignment solver and matching.
//
// How often a walk forces a full recompute varies from walk to walk,
// and recomputes set the tail, so the run cycles over rpApps
// independent applications rather than following one.
const (
	rpP    = 50
	rpApps = 8
)

var repeatDrift = workload{
	name:  "repeat-drift",
	tailQ: 0.99,
	warm:  limit{ops: 5 * rpApps},
	setup: setupRepeatDrift,
}

// rpApp is one application: its directory, network walk, pattern and
// communicator.
type rpApp struct {
	store  *hetsched.DirectoryStore
	walker *netmodel.Walker
	comm   *hetsched.Communicator
	sizes  *hetsched.Sizes
}

type repeatDriftSys struct {
	rec  *recorder
	apps []*rpApp
	seq  uint64

	// measured-run state, reset by begin
	stats0 []hetsched.CommStats
	class  []string // per measured op: plan, repair or recompute
}

func setupRepeatDrift(seed int64, rec *recorder, _ string) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &repeatDriftSys{rec: rec}
	for i := 0; i < rpApps; i++ {
		app, err := newRpApp(rng, rec)
		if err != nil {
			return nil, err
		}
		s.apps = append(s.apps, app)
	}
	return s, nil
}

func newRpApp(rng *rand.Rand, rec *recorder) (*rpApp, error) {
	perf := hetsched.RandomPerf(rng, rpP, hetsched.GustoGuided())
	app := &rpApp{sizes: hetsched.WorkloadSizes(rng, hetsched.DefaultWorkload(hetsched.WorkloadMixed, rpP))}
	var err error
	if app.store, err = hetsched.NewDirectory(perf, nil); err != nil {
		return nil, err
	}
	app.walker = hetsched.NewWalker(rng, perf, hetsched.DefaultDrift())
	source := hetsched.CommSource(func() (*hetsched.Perf, error) {
		p, _ := app.store.Snapshot()
		return p, nil
	})
	scheduler := hetsched.OpenShop()
	if rec != nil {
		source = rec.timeSource(source)
		scheduler = timedScheduler{inner: scheduler, rec: rec}
	}
	if app.comm, err = hetsched.NewCommunicator(rpP, source, hetsched.CommConfig{Scheduler: scheduler}); err != nil {
		return nil, err
	}
	// The first call plans cold and fills the repeated-plan cache: part
	// of setting the application up.
	if _, err := planRepeated(app.comm, app.sizes); err != nil {
		return nil, fmt.Errorf("first plan: %w", err)
	}
	return app, nil
}

func (s *repeatDriftSys) begin() {
	s.stats0, s.class = s.stats0[:0], s.class[:0]
	for _, app := range s.apps {
		s.stats0 = append(s.stats0, app.comm.Stats())
	}
}

func (s *repeatDriftSys) run(lim limit) *outcome {
	o := &outcome{}
	start := time.Now()
	for n := 0; !lim.done(start, n); n++ {
		s.seq++
		app := s.apps[s.seq%rpApps]
		var id uint64
		if s.rec != nil {
			id = s.rec.newOp()
		}
		table := app.walker.Step()
		tu := time.Now()
		_, err := app.store.Update(table)
		if s.rec != nil {
			s.rec.child("directory", "store_update", tu, time.Now())
		}
		if err != nil {
			o.failed++
			o.problemf("call %d: store update: %v", s.seq, err)
			continue
		}
		prev := app.comm.Stats()
		t0 := time.Now()
		res, err := planRepeated(app.comm, app.sizes)
		lat := time.Since(t0)
		if s.rec != nil {
			s.rec.op(id, "repeated_plan", t0, t0.Add(lat))
		}
		o.busy += lat
		st := app.comm.Stats()
		if err != nil {
			o.failed++
			o.problemf("call %d: %v", s.seq, err)
			continue
		}
		m, err := hetsched.Build(table, app.sizes)
		if err == nil {
			err = res.Schedule.ValidateTotalExchange(m)
		}
		if err == nil && res.LowerBound != m.LowerBound() {
			err = fmt.Errorf("t_lb %g, the served table gives %g", res.LowerBound, m.LowerBound())
		}
		if err != nil {
			o.failed++
			o.problemf("call %d: plan invalid for the served table: %v", s.seq, err)
			continue
		}
		class := "plan"
		switch {
		case st.Recomputes > prev.Recomputes:
			class = "recompute"
		case st.Repairs > prev.Repairs:
			class = "repair"
		}
		s.class = append(s.class, class)
		o.ops = append(o.ops, opRecord{id: s.seq, lat: lat, tmax: res.CompletionTime(),
			tlb: res.LowerBound, fixed: true,
			stats: []int{st.Plans, st.Repairs, st.Recomputes, st.ServedFresh, st.ServedStale, st.ServedDegraded}})
	}
	return o
}

func (s *repeatDriftSys) finish(*outcome) []metric { return nil }

func (s *repeatDriftSys) layers(o *outcome, _ measure) []metric {
	snaps := inUnit(s.rec.durations("directory", "snapshot"), time.Microsecond)
	updates := inUnit(s.rec.durations("directory", "store_update"), time.Microsecond)
	scheds := inUnit(s.rec.durations("sched", "schedule"), time.Microsecond)
	byClass := map[string][]float64{}
	var all []float64
	for i, op := range o.ops {
		us := float64(op.lat) / float64(time.Microsecond)
		byClass[s.class[i]] = append(byClass[s.class[i]], us)
		all = append(all, us)
	}
	var plans, repairs, recomputes int
	for i, app := range s.apps {
		st := app.comm.Stats()
		plans += st.Plans - s.stats0[i].Plans
		repairs += st.Repairs - s.stats0[i].Repairs
		recomputes += st.Recomputes - s.stats0[i].Recomputes
	}
	return []metric{
		{Name: "directory.snapshot_us_p50", Value: quantile(snaps, 0.5)},
		{Name: "directory.snapshot_us_p99", Value: quantile(snaps, 0.99)},
		{Name: "directory.snapshot_calls", Value: float64(len(snaps))},
		{Name: "directory.store_update_us", Value: quantile(updates, 0.5)},
		{Name: "comm.plans", Value: float64(plans)},
		{Name: "comm.repairs", Value: float64(repairs)},
		{Name: "comm.recomputes", Value: float64(recomputes)},
		{Name: "comm.repair_us", Value: quantile(byClass["repair"], 0.5)},
		{Name: "comm.recompute_us", Value: quantile(byClass["recompute"], 0.5)},
		{Name: "comm.plan_us_p50", Value: quantile(all, 0.5)},
		{Name: "comm.plan_us_p99", Value: quantile(all, 0.99)},
		{Name: "sched.schedule_us_p50", Value: quantile(scheds, 0.5)},
		{Name: "sched.schedule_us_p99", Value: quantile(scheds, 0.99)},
		{Name: "sched.schedule_calls", Value: float64(len(scheds))},
	}
}

func (s *repeatDriftSys) close() error { return nil }
