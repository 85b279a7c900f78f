package comm

import (
	"math/rand"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// TestRepeatedScratchZeroAlloc is the zero-alloc acceptance criterion
// for the repeated-exchange cache hit: a steady-state AllToAllRepeated
// at P = 50 — source snapshot, model build into a pooled scratch
// matrix, cache recognition — must not touch the heap.
func TestRepeatedScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		// -race instrumentation changes escape analysis; allocation
		// counts are meaningless under it, so asserting here would only
		// produce noise. This is a skip, not a pass: the !race CI step
		// runs this test for real on every push (see
		// .github/workflows/ci.yml), and `go test ./internal/comm/`
		// locally does too.
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := 50
	perf := netmodel.RandomPerf(rand.New(rand.NewSource(4)), n, netmodel.GustoGuided())
	// The source returns the same table without cloning: the
	// communicator never mutates what it is served, and a cloning
	// source would charge its own allocations to the replan path.
	src := func() (*netmodel.Perf, error) { return perf, nil }
	t0 := time.Unix(1000, 0)
	c, err := New(n, src, Config{Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(n, 1<<16)
	for i := 0; i < 2; i++ {
		if _, err := c.AllToAllRepeated(sizes); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.AllToAllRepeated(sizes); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AllToAllRepeated at P=%d: %v allocs/op, want 0 — "+
			"the cache hit regressed; check the pooled matrix buffer "+
			"and the Equal short circuits", n, allocs)
	}
	if st := c.Stats(); st.Plans != 1 {
		t.Fatalf("stats = %+v, want every call after the first to hit the cache", st)
	}
}
