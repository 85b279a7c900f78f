package comm

import (
	"errors"
	"strings"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// counterValue reads a counter back out of the registry by resolving
// the same (name, labels) — Registry.Counter is get-or-create, so this
// returns the instrument the communicator incremented.
func counterValue(reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	return reg.Counter(name, "", labels...).Value()
}

func TestTelemetryLadderAndQuality(t *testing.T) {
	reg := obs.New()
	tr := obs.NewTracer(nil)
	ok := true
	perf := netmodel.Gusto()
	c, err := New(5, func() (*netmodel.Perf, error) {
		if ok {
			return perf.Clone(), nil
		}
		return nil, errors.New("directory down")
	}, Config{StaleBound: -1, Metrics: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}
	ok = false // the ladder must fall straight to degraded (stale rung disabled)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}

	if got := counterValue(reg, obs.MetricCommPlans); got != 2 {
		t.Errorf("plans counter = %d, want 2", got)
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "fresh")); got != 1 {
		t.Errorf("served{fresh} = %d, want 1", got)
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "degraded")); got != 1 {
		t.Errorf("served{degraded} = %d, want 1", got)
	}
	if got := counterValue(reg, obs.MetricLadderTransitions,
		obs.L("from", "fresh"), obs.L("to", "degraded")); got != 1 {
		t.Errorf("transitions{fresh→degraded} = %d, want 1", got)
	}
	if got := reg.Histogram(obs.MetricPlanSeconds, "", obs.DurationBuckets).Count(); got != 2 {
		t.Errorf("plan-seconds count = %d, want 2", got)
	}
	for _, alg := range []string{"openshop", "baseline"} {
		h := reg.Histogram(obs.MetricScheduleQuality, "", obs.RatioBuckets, obs.L("algorithm", alg))
		if h.Count() != 1 {
			t.Errorf("quality{%s} count = %d, want 1", alg, h.Count())
		}
		if h.Sum() < 1 {
			t.Errorf("quality{%s} sum = %g, want ≥ 1 (t_max/t_lb)", alg, h.Sum())
		}
	}
	// The trace must carry both plan spans and the rung transition.
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	trace := sb.String()
	if !strings.Contains(trace, `"plan"`) || !strings.Contains(trace, `"transition"`) {
		t.Errorf("trace missing plan span or transition instant:\n%s", trace)
	}
}

// TestTelemetryMirrorsStats drives the repeated-exchange path through a
// plan, a cache hit, and a plan dropped on drift, and checks the
// registry counters agree with the Stats struct: the same numbers must
// appear on /metrics.
func TestTelemetryMirrorsStats(t *testing.T) {
	reg := obs.New()
	perf := netmodel.Gusto()
	c, err := New(5, func() (*netmodel.Perf, error) { return perf.Clone(), nil },
		Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAllRepeated(sizes); err != nil { // plan
		t.Fatal(err)
	}
	if _, err := c.AllToAllRepeated(sizes); err != nil { // unchanged → cache hit
		t.Fatal(err)
	}
	// Crash every bandwidth: the matrix changes and the cached plan goes.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				pp := perf.At(i, j)
				pp.Bandwidth /= 100
				perf.Set(i, j, pp)
			}
		}
	}
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Plans != 2 || st.Repairs != 1 || st.Recomputes != 1 {
		t.Fatalf("test did not exercise every path: %+v", st)
	}
	mirror := map[string]int{
		obs.MetricCommPlans:      st.Plans,
		obs.MetricCommRepairs:    st.Repairs,
		obs.MetricCommRecomputes: st.Recomputes,
	}
	for name, want := range mirror {
		if got := counterValue(reg, name); got != uint64(want) {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "fresh")); got != uint64(st.ServedFresh) {
		t.Errorf("served{fresh} = %d, stats say %d", got, st.ServedFresh)
	}
	if got := reg.Histogram(obs.MetricPlanSeconds, "", obs.DurationBuckets).Count(); got != uint64(st.Plans) {
		t.Errorf("plan-seconds count = %d, want one sample per plan (%d)", got, st.Plans)
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	if c.tel.enabled {
		t.Fatal("telemetry enabled with no registry or tracer")
	}
	sizes := model.UniformSizes(5, 1<<10)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
}
