// Repeated: the Section 6.2 scenario end to end. A sensor-style
// application performs the same total exchange over and over while the
// network breathes under a diurnal load profile. The directory
// publishes a fresh measurement once a minute, but data sets arrive
// every 30 seconds. Each round the Communicator takes a directory
// snapshot and builds the cost model: when the model is unchanged since
// the last plan it serves that plan again from its cache, and when the
// network has moved it replans with open shop.
//
//	go run ./examples/repeated
package main

import (
	"fmt"
	"log"
	"math"

	"hetsched"
)

func main() {
	base := hetsched.Gusto()
	profile, err := hetsched.DiurnalProfile(5, 3600, 0.4) // hour-long "day", ±40% load
	if err != nil {
		log.Fatal(err)
	}

	// The directory source: the network as of its latest once-a-minute
	// measurement.
	now := 0.0
	source := func() (*hetsched.Perf, error) {
		return hetsched.SampleProfile(base, profile, 60*math.Floor(now/60)), nil
	}
	comm, err := hetsched.NewCommunicator(5, source, hetsched.CommConfig{})
	if err != nil {
		log.Fatal(err)
	}

	sizes := hetsched.UniformSizes(5, 1<<20)
	fmt.Printf("%6s %10s %12s %12s %10s %s\n", "round", "t (s)", "t_lb (s)", "t_max (s)", "ratio", "served")
	for round := 0; round < 10; round++ {
		before := comm.Stats().Repairs
		r, err := comm.AllToAllRepeated(sizes)
		if err != nil {
			log.Fatal(err)
		}
		served := "new plan"
		if comm.Stats().Repairs > before {
			served = "cached plan"
		}
		fmt.Printf("%6d %10.0f %12.2f %12.2f %10.3f %s by %s\n",
			round, now, r.LowerBound, r.CompletionTime(), comm.Quality(r), served, r.Algorithm)
		now += 30 // the next data set arrives half a minute later
	}
	st := comm.Stats()
	fmt.Printf("\nplanning effort: %d plans computed, %d exchanges served from the cache, %d cached plans dropped on drift\n",
		st.Plans, st.Repairs, st.Recomputes)
}
