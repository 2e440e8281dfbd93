// LBS: the location-based-services scenario from the paper's introduction.
//
// Vehicles report positions along a highway using dead reckoning: the
// database only knows each vehicle's position up to an uncertainty interval,
// modeled with the Gaussian measurement-error pdf the paper cites for GPS
// data (Fig. 1(a)). The example asks which vehicle is most likely nearest to
// an incident location, comparing the three evaluation strategies.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	pnn "repro"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// 5,000 vehicles on a 100 km highway (positions in meters). Each has an
	// uncertainty interval whose width reflects time since its last update;
	// the position pdf is the paper's truncated Gaussian (σ = width/6).
	const vehicles = 5000
	pdfs := make([]pnn.PDF, vehicles)
	for i := range pdfs {
		center := rng.Float64() * 100000
		width := 50 + rng.ExpFloat64()*200 // 50 m .. ~1 km of drift
		g, err := pnn.PaperGaussian(center-width/2, center+width/2)
		if err != nil {
			log.Fatal(err)
		}
		pdfs[i] = g
	}
	eng, err := pnn.New(pnn.NewDataset(pdfs))
	if err != nil {
		log.Fatal(err)
	}

	const incident = 47250.0 // meters
	c := pnn.Constraint{P: 0.3, Delta: 0.01}

	for _, strat := range []pnn.Strategy{pnn.StrategyVR, pnn.StrategyRefine, pnn.StrategyBasic} {
		start := time.Now()
		res, err := eng.CPNN(incident, c, pnn.Options{Strategy: strat, Bins: 120})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7v %d candidates -> %d dispatchable vehicles in %v\n",
			strat, res.Stats.Candidates, len(res.Answers), time.Since(start).Round(time.Microsecond))
		for _, a := range res.Answers {
			fmt.Printf("        vehicle %d: p ∈ [%.3f, %.3f]\n", a.ID, a.Bounds.L, a.Bounds.U)
		}
	}

	// Dispatch planning wants backups: the three most probable responders,
	// via the constrained k-NN extension, which integrates each vehicle's
	// probability of being among the 3 nearest exactly.
	answers, _, err := eng.CKNN(incident, pnn.Constraint{P: 0.5, Delta: 0.05},
		pnn.KNNOptions{K: 3, Bins: 120})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("likely top-3 responders (p ≥ 50%):")
	for _, a := range answers {
		if a.Status == pnn.StatusSatisfy {
			fmt.Printf("        vehicle %d: p = %.3f\n", a.ID, a.Bounds.L)
		}
	}
}
