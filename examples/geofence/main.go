// Geofence: planar uncertain nearest-neighbor dispatch.
//
// Delivery drones hover inside circular uncertainty regions (position fixes
// decay between telemetry updates). When a pickup request arrives, the
// dispatcher wants the drones most likely to be nearest to the pickup point
// — a 2-D C-PNN, using the paper's §IV-A reduction of circular regions to
// distance pdfs.
package main

import (
	"fmt"
	"log"
	"math/rand"

	pnn "repro"
)

func main() {
	rng := rand.New(rand.NewSource(12))

	// 400 drones over a 10 km × 10 km service area (coordinates in meters).
	// Uncertainty radius grows with time since the last fix: 20 m to 500 m.
	objs := make([]pnn.Object2D, 400)
	for i := range objs {
		objs[i] = pnn.Object2D{
			ID: i,
			Region: pnn.Circle{
				Center: pnn.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
				Radius: 20 + rng.ExpFloat64()*160,
			},
		}
	}
	eng, err := pnn.New2D(objs)
	if err != nil {
		log.Fatal(err)
	}

	pickup := pnn.Point{X: 4210, Y: 6888}

	// Which drones are the nearest with >= 35% probability (tolerating 3%)?
	res, err := eng.CPNN(pickup, pnn.Constraint{P: 0.35, Delta: 0.03},
		pnn.Options{Bins: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pickup (%.0f, %.0f): %d candidate drones, f_min=%.0fm\n",
		pickup.X, pickup.Y, res.Stats.Candidates, res.Stats.FMin)
	for _, a := range res.Answers {
		c := objs[a.ID].Region
		fmt.Printf("  drone %d at (%.0f, %.0f)±%.0fm: p ∈ [%.3f, %.3f]\n",
			a.ID, c.Center.X, c.Center.Y, c.Radius, a.Bounds.L, a.Bounds.U)
	}
	fmt.Printf("  verification decided %d/%d drones without integration\n",
		res.Stats.Candidates-res.Stats.RefinedObjects, res.Stats.Candidates)

	// Full probability picture for the dispatcher's UI.
	probs, _, err := eng.PNN(pickup, pnn.Options{Bins: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top contenders:")
	for i, p := range probs {
		if i == 5 || p.P < 0.01 {
			break
		}
		fmt.Printf("  drone %d: %.1f%%\n", p.ID, 100*p.P)
	}
}
