// Package serve implements hetpland, the overload-safe
// planning-as-a-service daemon: a bounded admission queue with
// deadline-aware load shedding, request coalescing onto identical
// in-flight plans, a generation-versioned plan cache, and graceful
// degradation that rides the communicator's fresh→stale→degraded
// ladder when the directory is unreachable. DESIGN.md §12 documents
// the architecture; EXPERIMENTS.md X15 is the overload chaos scenario.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"hetsched/internal/model"
)

// hashU64 feeds one big-endian word into h.
func hashU64(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	//hetvet:ignore errdiscard fnv hash writes cannot fail
	h.Write(buf[:])
}

// hashStr feeds a string into h.
func hashStr(h hash.Hash64, s string) {
	//hetvet:ignore errdiscard fnv hash writes cannot fail
	h.Write([]byte(s))
}

// materialize turns a wire-level plan request into the concrete sizes
// matrix to plan for, plus a pattern hash identifying the request for
// coalescing and caching. Two requests with equal hashes describe the
// same matrix, so under an unchanged directory generation they have
// the same answer. The hash covers every size-determining field —
// explicit matrices hash their values, generated patterns hash
// (kind, p, bytes, seed) — with domain separation between the two
// forms so an explicit matrix can never collide with a shorthand that
// would generate it.
func materialize(req PlanRequest, maxP int) (*model.Sizes, uint64, error) {
	if len(req.Sizes) > 0 {
		return materializeExplicit(req.Sizes, maxP)
	}
	p := req.P
	if p < 2 {
		return nil, 0, fmt.Errorf("serve: request needs p >= 2 or an explicit sizes matrix (got p=%d)", p)
	}
	if p > maxP {
		return nil, 0, fmt.Errorf("serve: p=%d exceeds the daemon's limit of %d", p, maxP)
	}
	bytes := req.Bytes
	if bytes <= 0 {
		bytes = 1 << 10
	}
	kind := req.Kind
	if kind == "" {
		kind = PatternUniform
	}
	var s *model.Sizes
	switch kind {
	case PatternUniform:
		s = model.UniformSizes(p, bytes)
	case PatternRandom:
		s = model.NewSizes(p)
		rng := rand.New(rand.NewSource(req.Seed))
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					s.Set(i, j, 1+rng.Int63n(bytes))
				}
			}
		}
	case PatternSkew:
		// Row i sends (i+1)·bytes to every peer: a ramp that keeps one
		// processor a clear straggler, useful for exercising non-uniform
		// schedules without a seed.
		s = model.NewSizes(p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					s.Set(i, j, bytes*int64(i+1))
				}
			}
		}
	default:
		return nil, 0, fmt.Errorf("serve: unknown pattern kind %q", kind)
	}
	h := fnv.New64a()
	hashStr(h, "gen|"+kind+"|")
	hashU64(h, uint64(p))
	hashU64(h, uint64(bytes))
	hashU64(h, uint64(req.Seed))
	return s, h.Sum64(), nil
}

// materializeExplicit validates and hashes a caller-supplied sizes
// matrix: square, within the daemon's processor limit, non-negative
// entries, zero diagonal.
func materializeExplicit(rows [][]int64, maxP int) (*model.Sizes, uint64, error) {
	p := len(rows)
	if p < 2 {
		return nil, 0, fmt.Errorf("serve: explicit sizes matrix needs at least 2 rows (got %d)", p)
	}
	if p > maxP {
		return nil, 0, fmt.Errorf("serve: explicit sizes matrix has %d rows, exceeding the daemon's limit of %d", p, maxP)
	}
	s := model.NewSizes(p)
	h := fnv.New64a()
	hashStr(h, "explicit|")
	hashU64(h, uint64(p))
	for i, row := range rows {
		if len(row) != p {
			return nil, 0, fmt.Errorf("serve: sizes row %d has %d entries, want %d", i, len(row), p)
		}
		for j, v := range row {
			if i == j {
				if v != 0 {
					return nil, 0, fmt.Errorf("serve: sizes diagonal entry (%d,%d) must be 0, got %d", i, j, v)
				}
				continue
			}
			if v < 0 {
				return nil, 0, fmt.Errorf("serve: sizes entry (%d,%d) is negative: %d", i, j, v)
			}
			s.Set(i, j, v)
			hashU64(h, uint64(v))
		}
	}
	return s, h.Sum64(), nil
}
