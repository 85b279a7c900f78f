package comm

import (
	"sync"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// gateScheduler is open shop behind a gate: Schedule announces itself
// on entered, then waits for release, so a test can land an Invalidate
// while a plan is in flight.
type gateScheduler struct {
	entered chan struct{}
	release chan struct{}
}

func (g gateScheduler) Name() string { return "openshop" }

func (g gateScheduler) Schedule(m *model.Matrix) (*sched.Result, error) {
	g.entered <- struct{}{}
	<-g.release
	return sched.NewOpenShop().Schedule(m)
}

// TestInvalidateDoomsInflightRepair: a plan in flight when Invalidate
// lands was computed from a live snapshot, so it is served — but its
// generation-checked install fails, the cache stays empty, and the next
// call plans again. Run under -race this also checks the install
// against the concurrent Invalidate.
func TestInvalidateDoomsInflightRepair(t *testing.T) {
	gate := gateScheduler{entered: make(chan struct{}, 2), release: make(chan struct{})}
	c := newComm(t, netmodel.Gusto(), Config{Scheduler: gate})
	sizes := model.UniformSizes(5, 1<<20)
	type served struct {
		r   *sched.Result
		err error
	}
	done := make(chan served, 1)
	go func() {
		r, err := c.AllToAllRepeated(sizes)
		done <- served{r, err}
	}()
	<-gate.entered
	c.Invalidate()
	close(gate.release)
	first := <-done
	if first.err != nil {
		t.Fatal(first.err)
	}
	if err := first.r.Schedule.ValidateTotalExchange(nil); err != nil {
		t.Fatalf("doomed plan not servable: %v", err)
	}
	c.mu.Lock()
	cleared := c.lastResult == nil && c.lastMatrix == nil
	c.mu.Unlock()
	if !cleared {
		t.Fatal("plan from before the Invalidate installed")
	}
	r, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r == first.r {
		t.Fatal("post-Invalidate call served the doomed plan")
	}
	if st := c.Stats(); st.Plans != 2 || st.Repairs != 0 {
		t.Fatalf("post-Invalidate call did not plan from scratch: %+v", st)
	}
	if again, err := c.AllToAllRepeated(sizes); err != nil || again != r {
		t.Fatalf("the post-Invalidate plan was not cached: %v", err)
	}
}

// TestInvalidateScratchPlanStillServable: a plan computed from scratch
// under a generation an Invalidate has since bumped is served, and
// only the install is refused.
func TestInvalidateScratchPlanStillServable(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	gen := c.planGen
	c.mu.Unlock()
	c.Invalidate()
	m, err := model.Build(netmodel.Gusto(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.planRepeated(m, HealthOK, gen)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Schedule == nil {
		t.Fatal("scratch plan not served")
	}
	c.mu.Lock()
	cached := c.lastResult
	c.mu.Unlock()
	if cached != nil {
		t.Fatal("plan from a pre-Invalidate generation installed")
	}
}

// TestInvalidateRacesRepeatedUnderLoad drives repeated exchanges,
// batches, and invalidations concurrently. Run under -race this is
// the regression test for the plan-generation fix; semantically, no
// call may fail and no served result may be structurally empty.
func TestInvalidateRacesRepeatedUnderLoad(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, 4*iters)
	for w := 0; w < 2; w++ {
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
			if _, err := c.AllToAllBatch([]*model.Sizes{sizes, sizes}, 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.Invalidate()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
