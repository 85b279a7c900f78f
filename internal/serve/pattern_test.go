package serve

import (
	"reflect"
	"testing"
)

func TestMaterializeDeterministic(t *testing.T) {
	req := PlanRequest{P: 6, Kind: PatternRandom, Bytes: 4096, Seed: 42}
	s1, h1, err := materialize(req, 64)
	if err != nil {
		t.Fatal(err)
	}
	s2, h2, err := materialize(req, 64)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same spec hashed differently: %x vs %x", h1, h2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same spec materialized different matrices")
	}
}

func TestMaterializeHashSeparatesSpecs(t *testing.T) {
	base := PlanRequest{P: 4, Kind: PatternUniform, Bytes: 1024}
	_, h0, err := materialize(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	variants := []PlanRequest{
		{P: 5, Kind: PatternUniform, Bytes: 1024},
		{P: 4, Kind: PatternUniform, Bytes: 2048},
		{P: 4, Kind: PatternSkew, Bytes: 1024},
		{P: 4, Kind: PatternRandom, Bytes: 1024, Seed: 1},
		{P: 4, Kind: PatternRandom, Bytes: 1024, Seed: 2},
	}
	seen := map[uint64]bool{h0: true}
	for _, v := range variants {
		_, h, err := materialize(v, 64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatalf("spec %+v collided with an earlier hash", v)
		}
		seen[h] = true
	}
}

// TestMaterializeDomainSeparation: an explicit matrix with exactly the
// values a uniform shorthand would generate must still hash
// differently — the two forms are different wire specs.
func TestMaterializeDomainSeparation(t *testing.T) {
	gen := PlanRequest{P: 3, Kind: PatternUniform, Bytes: 7}
	sGen, hGen, err := materialize(gen, 64)
	if err != nil {
		t.Fatal(err)
	}
	exp := PlanRequest{Sizes: [][]int64{{0, 7, 7}, {7, 0, 7}, {7, 7, 0}}}
	sExp, hExp, err := materialize(exp, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sGen, sExp) {
		t.Fatal("matrices should be identical")
	}
	if hGen == hExp {
		t.Fatal("explicit and generated specs share a hash")
	}
}

func TestMaterializeRejects(t *testing.T) {
	cases := []PlanRequest{
		{P: 1, Kind: PatternUniform},                            // too small
		{P: 100, Kind: PatternUniform},                          // over maxP
		{P: 4, Kind: "fancy"},                                   // unknown kind
		{Sizes: [][]int64{{0, 1}}},                              // ragged
		{Sizes: [][]int64{{0, -1}, {1, 0}}},                     // negative
		{Sizes: [][]int64{{5, 1}, {1, 0}}},                      // nonzero diagonal
		{Sizes: [][]int64{{0}}},                                 // 1x1
		{Sizes: [][]int64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {}}}, // ragged tall
	}
	for i, req := range cases {
		if _, _, err := materialize(req, 64); err == nil {
			t.Errorf("case %d (%+v): expected an error", i, req)
		}
	}
}
