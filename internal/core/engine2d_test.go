package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/verify"
)

func circles2D() []Object2D {
	return []Object2D{
		{ID: 0, Region: geom.Circle{Center: geom.Point{X: 3, Y: 0}, Radius: 2}},
		{ID: 1, Region: geom.Circle{Center: geom.Point{X: 0, Y: 4}, Radius: 2.5}},
		{ID: 2, Region: geom.Circle{Center: geom.Point{X: -5, Y: -1}, Radius: 3}},
		{ID: 3, Region: geom.Circle{Center: geom.Point{X: 40, Y: 40}, Radius: 1}},
	}
}

func TestEngine2DValidation(t *testing.T) {
	if _, err := NewEngine2D([]Object2D{{ID: 0, Region: geom.Circle{Radius: 0}}}); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewEngine2D([]Object2D{
		{ID: 7, Region: geom.Circle{Radius: 1}},
		{ID: 7, Region: geom.Circle{Radius: 1}},
	}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	// What the store refuses for a disk op the constructor must refuse too,
	// naming the object: left in, each of these fails every later query.
	for name, region := range map[string]geom.Circle{
		"NaN centre":  {Center: geom.Point{X: math.NaN(), Y: 1}, Radius: 1},
		"+Inf centre": {Center: geom.Point{X: 1, Y: math.Inf(1)}, Radius: 1},
		"-Inf centre": {Center: geom.Point{X: math.Inf(-1), Y: 1}, Radius: 1},
		"+Inf radius": {Center: geom.Point{X: 1, Y: 1}, Radius: math.Inf(1)},
	} {
		_, err := NewEngine2D([]Object2D{{ID: 0, Region: geom.Circle{Radius: 1}}, {ID: 41, Region: region}})
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "object 41") {
			t.Errorf("%s: error %q does not name the object", name, err)
		}
	}
}

func TestEngine2DEmpty(t *testing.T) {
	e, err := NewEngine2D(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CPNN(geom.Point{}, verify.Constraint{P: 0.3}, Options{})
	if err != nil || len(res.Answers) != 0 {
		t.Errorf("empty 2-D engine: %v, %v", res, err)
	}
}

func TestEngine2DFiltersFarObject(t *testing.T) {
	e, err := NewEngine2D(circles2D())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.CPNN(geom.Point{X: 0, Y: 0}, verify.Constraint{P: 0.1, Delta: 0.01}, Options{Bins: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 3 {
		t.Errorf("candidates = %d, want 3 (far disk pruned)", res.Stats.Candidates)
	}
	for _, a := range res.Candidates {
		if a.ID == 3 {
			t.Error("far disk survived filtering")
		}
	}
}

func TestEngine2DPNNMatchesMonteCarlo(t *testing.T) {
	objs := circles2D()
	e, err := NewEngine2D(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{X: 0, Y: 0}
	probs, st, err := e.PNN(q, Options{Bins: 256})
	if err != nil {
		t.Fatal(err)
	}
	// PNN shares CPNN's filter, derivation and table, so it reports the same
	// set sizes and filtering bound.
	res, err := e.CPNN(q, verify.Constraint{P: 0.3}, Options{Bins: 256})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != res.Stats.Candidates || st.Subregions != res.Stats.Subregions || st.FMin != res.Stats.FMin {
		t.Errorf("PNN stats (|C|=%d, M=%d, f_min=%g) differ from CPNN's (|C|=%d, M=%d, f_min=%g)",
			st.Candidates, st.Subregions, st.FMin, res.Stats.Candidates, res.Stats.Subregions, res.Stats.FMin)
	}
	sum := 0.0
	exact := map[int]float64{}
	for _, p := range probs {
		sum += p.P
		exact[p.ID] = p.P
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("Σ p = %g", sum)
	}
	// Ground truth from disk sampling.
	rng := rand.New(rand.NewSource(5))
	const samples = 120000
	counts := map[int]float64{}
	for s := 0; s < samples; s++ {
		best, bi := math.Inf(1), -1
		for _, o := range objs {
			var p geom.Point
			for {
				p = geom.Point{
					X: o.Region.Center.X - o.Region.Radius + 2*o.Region.Radius*rng.Float64(),
					Y: o.Region.Center.Y - o.Region.Radius + 2*o.Region.Radius*rng.Float64(),
				}
				if o.Region.Center.Dist(p) <= o.Region.Radius {
					break
				}
			}
			if d := p.Dist(q); d < best {
				best, bi = d, o.ID
			}
		}
		counts[bi]++
	}
	for id, c := range counts {
		mc := c / samples
		if diff := math.Abs(mc - exact[id]); diff > 0.012 {
			t.Errorf("object %d: PNN %g vs MC %g", id, exact[id], mc)
		}
	}
}

func TestEngine2DStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var objs []Object2D
	for i := 0; i < 60; i++ {
		objs = append(objs, Object2D{
			ID: i,
			Region: geom.Circle{
				Center: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 1 + rng.Float64()*6,
			},
		})
	}
	e, err := NewEngine2D(objs)
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0}
	refinedVR, refinedRS := 0, 0
	for _, q := range []geom.Point{{X: 50, Y: 50}, {X: 20, Y: 80}, {X: 66, Y: 10}} {
		vr, err := e.CPNN(q, c, Options{Bins: 128})
		if err != nil {
			t.Fatal(err)
		}
		// A verifier subset decides fewer objects but never different ones.
		rs, err := e.CPNN(q, c, Options{Bins: 128, Verifiers: []verify.Verifier{verify.RS{}}})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(vr.AnswerIDs(), rs.AnswerIDs()) {
			t.Errorf("q=%v: VR %v vs RS-only %v", q, vr.AnswerIDs(), rs.AnswerIDs())
		}
		refinedVR += vr.Stats.RefinedObjects
		refinedRS += rs.Stats.RefinedObjects
		basic, err := e.CPNN(q, c, Options{Strategy: Basic, Bins: 128, BasicSteps: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(vr.AnswerIDs(), basic.AnswerIDs()) {
			t.Errorf("q=%v: VR %v vs Basic %v", q, vr.AnswerIDs(), basic.AnswerIDs())
		}
	}
	if refinedRS <= refinedVR {
		t.Errorf("RS alone refined %d objects, the full chain %d: the verifier subset did not run", refinedRS, refinedVR)
	}
}

// TestIDOrderAtExtremeIDs: Candidates and Answers ascend by ID, and PNN
// probability ties break by ascending ID, for any distinct int IDs. IDs spread
// over the whole int range are what a comparator subtracting one ID from
// another gets wrong: the difference wraps past MaxInt and flips its sign.
// Every third disk repeats the one before it, so PNN has exact ties.
func TestIDOrderAtExtremeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c := verify.Constraint{P: 0.05, Delta: 0.01}
	q := geom.Point{X: 5, Y: 5}
	opt := Options{Bins: 32}
	ascending := func(what string, set int, as []Answer) {
		t.Helper()
		for i := 1; i < len(as); i++ {
			if as[i-1].ID >= as[i].ID {
				t.Fatalf("set %d: %s out of ID order at %d: %d then %d", set, what, i, as[i-1].ID, as[i].ID)
			}
		}
	}
	ties := 0
	for set := 0; set < 200; set++ {
		objs := make([]Object2D, 12)
		seen := map[int]bool{}
		for i := range objs {
			id := int(rng.Uint64())
			switch {
			case i == 0:
				id = math.MaxInt
			case i == 1:
				id = math.MinInt
			}
			for seen[id] {
				id = int(rng.Uint64())
			}
			seen[id] = true
			region := geom.Circle{
				Center: geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
				Radius: 1 + rng.Float64()*3,
			}
			if i%3 == 2 {
				region = objs[i-1].Region
			}
			objs[i] = Object2D{ID: id, Region: region}
		}
		eng, err := NewEngine2D(objs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CPNN(q, c, opt)
		if err != nil {
			t.Fatal(err)
		}
		ascending("Candidates", set, res.Candidates)
		ascending("Answers", set, res.Answers)
		probs, _, err := eng.PNN(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(probs); i++ {
			if probs[i-1].P == probs[i].P {
				ties++
				if probs[i-1].ID >= probs[i].ID {
					t.Fatalf("set %d: PNN tie at P = %g out of ID order: %d then %d", set, probs[i].P, probs[i-1].ID, probs[i].ID)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no PNN probabilities tied; the repeated disks should tie")
	}
}

// TestEngine2DRejectsNonFinite: the planar entry points refuse a query
// point with a NaN or infinite coordinate.
func TestEngine2DRejectsNonFinite(t *testing.T) {
	eng, err := NewEngine2D([]Object2D{{ID: 0, Region: geom.Circle{Center: geom.Point{X: 1, Y: 1}, Radius: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	c := verify.Constraint{P: 0.3, Delta: 0.01}
	for _, bad := range []geom.Point{{X: math.NaN(), Y: 0}, {X: 0, Y: math.Inf(1)}, {X: math.Inf(-1), Y: 0}} {
		if _, err := eng.CPNN(bad, c, Options{}); err == nil {
			t.Errorf("2-D CPNN accepted %v", bad)
		}
		if _, _, err := eng.PNN(bad, Options{}); err == nil {
			t.Errorf("2-D PNN accepted %v", bad)
		}
	}
}
