package comm

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// seqSource replays a fixed sequence of performance tables, serving
// the last one forever; indices listed in fail return a source error
// instead. Two instances over the same slices behave identically, so
// two communicators can be driven through the same network history.
type seqSource struct {
	perfs []*netmodel.Perf
	fail  map[int]bool
	i     int
}

func (s *seqSource) next() (*netmodel.Perf, error) {
	i := s.i
	s.i++
	if s.fail[i] {
		return nil, errors.New("directory unreachable")
	}
	if i >= len(s.perfs) {
		i = len(s.perfs) - 1
	}
	return s.perfs[i].Clone(), nil
}

// driftHistory builds a deterministic network history exercising every
// regime of the repeated-exchange cache: steady rounds (hits), small
// and heavy drift (misses), and recovery back to steady state.
func driftHistory(seed int64, n, rounds int) []*netmodel.Perf {
	rng := rand.New(rand.NewSource(seed))
	base := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
	out := []*netmodel.Perf{base}
	cur := base
	for len(out) < rounds {
		switch len(out) % 5 {
		case 1, 2: // steady: identical table
			out = append(out, cur)
		case 3: // small drift on a few pairs
			next := cur.Clone()
			for k := 0; k < n/2; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				pp := next.At(i, j)
				pp.Bandwidth *= 1 + 0.02*(rng.Float64()-0.5)
				next.Set(i, j, pp)
			}
			cur = next
			out = append(out, cur)
		case 4: // heavy drift everywhere
			next := cur.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					pp := next.At(i, j)
					pp.Bandwidth *= 0.3 + rng.Float64()
					pp.Latency *= 0.5 + rng.Float64()
					next.Set(i, j, pp)
				}
			}
			cur = next
			out = append(out, cur)
		default:
			out = append(out, cur)
		}
	}
	return out[:rounds]
}

// sameResult compares two served results bit for bit: algorithm,
// lower bound, step structure and rendered events.
func sameResult(t *testing.T, round int, a, b *sched.Result) {
	t.Helper()
	if a.Algorithm != b.Algorithm {
		t.Fatalf("round %d: algorithm %q vs %q", round, a.Algorithm, b.Algorithm)
	}
	if math.Float64bits(a.LowerBound) != math.Float64bits(b.LowerBound) {
		t.Fatalf("round %d: lower bound %v vs %v", round, a.LowerBound, b.LowerBound)
	}
	if (a.Steps == nil) != (b.Steps == nil) {
		t.Fatalf("round %d: step presence differs", round)
	}
	if a.Steps != nil {
		if a.Steps.N != b.Steps.N || len(a.Steps.Steps) != len(b.Steps.Steps) {
			t.Fatalf("round %d: step shape differs", round)
		}
		for si := range a.Steps.Steps {
			if len(a.Steps.Steps[si]) != len(b.Steps.Steps[si]) {
				t.Fatalf("round %d: step %d length differs", round, si)
			}
			for pi := range a.Steps.Steps[si] {
				if a.Steps.Steps[si][pi] != b.Steps.Steps[si][pi] {
					t.Fatalf("round %d: step %d pair %d differs", round, si, pi)
				}
			}
		}
	}
	if a.Schedule.N != b.Schedule.N || len(a.Schedule.Events) != len(b.Schedule.Events) {
		t.Fatalf("round %d: schedule shape differs", round)
	}
	for i := range a.Schedule.Events {
		x, y := a.Schedule.Events[i], b.Schedule.Events[i]
		if x.Src != y.Src || x.Dst != y.Dst ||
			math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.Finish) != math.Float64bits(y.Finish) {
			t.Fatalf("round %d: event %d differs: %+v vs %+v", round, i, x, y)
		}
	}
}

// TestRepeatedMatchesOneShot: the repeated-exchange cache is
// transparent. Driven through an identical network history — steady
// rounds, small and heavy drift, a source outage and an Invalidate —
// AllToAllRepeated must serve, bit for bit and with the same health,
// what a one-shot plan from the same snapshot serves, whether the call
// hit the cache or planned.
func TestRepeatedMatchesOneShot(t *testing.T) {
	const n, rounds = 8, 16
	hist := driftHistory(42, n, rounds)
	fail := map[int]bool{9: true} // one outage mid-run → stale rung
	srcA := &seqSource{perfs: hist, fail: fail}
	srcB := &seqSource{perfs: hist, fail: fail}
	t0 := time.Unix(1000, 0)
	clock := func() time.Time { return t0 }
	cfg := Config{Clock: clock}
	oneShot, err := New(n, srcA.next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repeated, err := New(n, srcB.next, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(n, 1<<18)
	for round := 0; round < rounds; round++ {
		if round == 12 {
			repeated.Invalidate()
		}
		ra, ha, errA := oneShot.AllToAllHealth(sizes)
		rb, errB := repeated.AllToAllRepeated(sizes)
		if errA != nil || errB != nil {
			t.Fatalf("round %d: errors %v, %v", round, errA, errB)
		}
		sameResult(t, round, ra, rb)
		if err := rb.Schedule.ValidateTotalExchange(nil); err != nil {
			t.Fatalf("round %d: repeated schedule invalid: %v", round, err)
		}
		if ha != repeated.Health() {
			t.Fatalf("round %d: health %v vs %v", round, ha, repeated.Health())
		}
	}
	st := repeated.Stats()
	if st.Repairs == 0 || st.Recomputes == 0 || st.ServedStale == 0 {
		t.Fatalf("history did not exercise every regime: %+v", st)
	}
	if got := st.Plans + st.Repairs; got != rounds {
		t.Fatalf("stats = %+v: every call must either plan or hit", st)
	}
}

// TestRepeatedScratchSteadyServesCache pins the hit path's cache
// handling: with the network unchanged, every later call serves the
// cached result itself, and the cache — plan and matrix — is never
// replaced by the scratch matrix the call built.
func TestRepeatedScratchSteadyServesCache(t *testing.T) {
	perf := netmodel.Gusto()
	c := newComm(t, perf, Config{})
	sizes := model.UniformSizes(perf.N(), 1<<20)
	r0, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	cachedResult, cachedMatrix := c.lastResult, c.lastMatrix
	c.mu.Unlock()
	if cachedResult != r0 {
		t.Fatal("first call did not cache the result it served")
	}
	for i := 0; i < 3; i++ {
		r, err := c.AllToAllRepeated(sizes)
		if err != nil {
			t.Fatal(err)
		}
		if r != cachedResult {
			t.Fatalf("steady call %d did not serve the cached result", i)
		}
	}
	c.mu.Lock()
	sameCache := c.lastResult == cachedResult && c.lastMatrix == cachedMatrix
	c.mu.Unlock()
	if !sameCache {
		t.Fatal("steady-state serving replaced the cache")
	}
	if st := c.Stats(); st.Plans != 1 || st.Repairs != 3 {
		t.Fatalf("stats = %+v, want 1 plan + 3 hits", st)
	}
}

// TestRepeatedScratchResultLifetime: served results and the cached
// matrix never alias a pooled scratch matrix. Through a drifting
// history, every earlier result stays unchanged after later calls
// reuse the pool, and the cache always holds the matrix of the round
// that produced its plan.
func TestRepeatedScratchResultLifetime(t *testing.T) {
	const n, rounds = 6, 10
	hist := driftHistory(7, n, rounds)
	src := &seqSource{perfs: hist}
	c, err := New(n, src.next, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(n, 1<<18)
	var served []*sched.Result
	var events [][]timing.Event
	for round := 0; round < rounds; round++ {
		r, err := c.AllToAllRepeated(sizes)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, r)
		events = append(events, append([]timing.Event(nil), r.Schedule.Events...))
		want, err := model.Build(hist[round], sizes)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		cached := c.lastMatrix.Equal(want)
		c.mu.Unlock()
		if !cached {
			t.Fatalf("round %d: cached matrix is not the round's model", round)
		}
		if err := r.Schedule.ValidateTotalExchange(want); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for k, r := range served {
		if len(r.Schedule.Events) != len(events[k]) {
			t.Fatalf("result %d changed shape", k)
		}
		for i := range events[k] {
			if r.Schedule.Events[i] != events[k][i] {
				t.Fatalf("result %d mutated by later calls", k)
			}
		}
	}
}

// TestRepeatedScratchPoolInvalidateRace hammers the pooled scratch
// matrices and the generation-checked install from every side at once:
// two communicators over a network that flips between two tables, each
// serving concurrent repeated calls — hits and misses mixed — while
// Invalidate fires mid-plan. Under -race (the exec-chaos CI leg) this
// is the memory-safety proof for buffer reuse; semantically, every
// served schedule must still be a complete valid total exchange.
func TestRepeatedScratchPoolInvalidateRace(t *testing.T) {
	a := netmodel.Gusto()
	b := a.Scale(0.5)
	comms := make([]*Communicator, 2)
	for i := range comms {
		var calls atomic.Int64
		src := func() (*netmodel.Perf, error) {
			if calls.Add(1)%4 < 2 {
				return a, nil
			}
			return b, nil
		}
		c, err := New(5, src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		comms[i] = c
	}
	sizes := model.UniformSizes(5, 1<<20)
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, 3*iters*len(comms))
	for _, c := range comms {
		c := c
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					r, err := c.AllToAllRepeated(sizes)
					if err != nil {
						errs <- err
						return
					}
					if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Invalidate()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
