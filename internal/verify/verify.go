// Package verify implements the probabilistic verifiers and the classifier
// of the C-PNN verification framework (paper §III-B, §IV, Fig. 5).
//
// A verifier tightens lower/upper bounds on candidates' qualification
// probabilities using only algebraic operations over the subregion table —
// no numerical integration. After each verifier the classifier labels every
// candidate satisfy, fail or unknown against the C-PNN constraint
// (Definition 1); verification stops as soon as nothing is unknown.
//
// The three verifiers, in ascending cost order (Table III):
//
//	RS   (Rightmost-Subregion)  upper bounds, O(|C|)
//	L-SR (Lower-Subregion)      lower bounds, O(|C|·M)
//	U-SR (Upper-Subregion)      upper bounds, O(|C|·M)
package verify

import (
	"fmt"

	"repro/internal/subregion"
)

// Status is a classifier label.
type Status uint8

const (
	// Unknown means the bounds cannot yet accept or reject the candidate.
	Unknown Status = iota
	// Satisfy means the candidate is part of the C-PNN answer.
	Satisfy
	// Fail means the candidate can never satisfy the C-PNN.
	Fail
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Unknown:
		return "unknown"
	case Satisfy:
		return "satisfy"
	case Fail:
		return "fail"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Bounds is a closed probability bound [L, U] for a qualification
// probability p: L <= p <= U.
type Bounds struct {
	L, U float64
}

// Width returns U − L, the paper's estimation error.
func (b Bounds) Width() float64 { return b.U - b.L }

// Tighten intersects b with other, keeping the stronger side of each bound.
func (b Bounds) Tighten(other Bounds) Bounds {
	out := b
	if other.L > out.L {
		out.L = other.L
	}
	if other.U < out.U {
		out.U = other.U
	}
	return out
}

// Constraint carries the C-PNN parameters of Definition 1.
type Constraint struct {
	// P is the probability threshold, in (0, 1].
	P float64
	// Delta is the tolerance on the bound width, in [0, 1].
	Delta float64
}

// Validate reports whether the constraint is within Definition 1's ranges.
func (c Constraint) Validate() error {
	if !(c.P > 0 && c.P <= 1) {
		return fmt.Errorf("verify: threshold P=%g outside (0, 1]", c.P)
	}
	if !(c.Delta >= 0 && c.Delta <= 1) {
		return fmt.Errorf("verify: tolerance Delta=%g outside [0, 1]", c.Delta)
	}
	return nil
}

// Classify labels a probability bound against the constraint:
//
//	satisfy  if U >= P and (L >= P or U−L <= Delta)
//	fail     if U < P
//	unknown  otherwise
func Classify(b Bounds, c Constraint) Status {
	if b.U < c.P {
		return Fail
	}
	if b.L >= c.P || b.Width() <= c.Delta {
		return Satisfy
	}
	return Unknown
}

// Verifier is one bound-tightening pass over the candidate set. Apply must
// only touch candidates whose status is Unknown, and must only replace a
// bound side with a strictly tighter value (paper §III-B).
type Verifier interface {
	// Name identifies the verifier in traces and experiment output.
	Name() string
	// Apply tightens bounds in place. bounds and status are indexed by the
	// table's local candidate index.
	Apply(t *subregion.Table, bounds []Bounds, status []Status)
}

// RS is the Rightmost-Subregion verifier (Lemma 1): an object's
// qualification probability is at most 1 − s_iM, its chance of staying out
// of the rightmost subregion.
type RS struct{}

// Name implements Verifier.
func (RS) Name() string { return "RS" }

// Apply implements Verifier.
func (RS) Apply(t *subregion.Table, bounds []Bounds, status []Status) {
	for i := range bounds {
		if status[i] != Unknown {
			continue
		}
		if u := 1 - t.RightmostMass(i); u < bounds[i].U {
			bounds[i].U = u
		}
	}
}

// LSR is the Lower-Subregion verifier (Lemma 2): for each non-rightmost
// subregion it lower-bounds the subregion qualification probability by
// Π_{k≠i}(1 − D_k(e_j)) / c_j and accumulates Eq. 4.
type LSR struct{}

// Name implements Verifier.
func (LSR) Name() string { return "L-SR" }

// Apply implements Verifier.
func (LSR) Apply(t *subregion.Table, bounds []Bounds, status []Status) {
	for i := range bounds {
		if status[i] != Unknown {
			continue
		}
		if l := lowerBound(t, i); l > bounds[i].L {
			bounds[i].L = l
		}
	}
}

// lowerBound computes Eq. 4 for candidate i.
func lowerBound(t *subregion.Table, i int) float64 {
	sum := 0.0
	for j := 0; j < t.NumSubregions()-1; j++ {
		if s := t.S(i, j); s > 0 {
			sum += s * SubregionLower(t, i, j)
		}
	}
	return sum
}

// USR is the Upper-Subregion verifier (Eq. 5/11): for each non-rightmost
// subregion it upper-bounds the subregion qualification probability by
// ½(Π_{k≠i}(1−D_k(e_j)) + Π_{k≠i}(1−D_k(e_{j+1}))).
type USR struct{}

// Name implements Verifier.
func (USR) Name() string { return "U-SR" }

// Apply implements Verifier.
func (USR) Apply(t *subregion.Table, bounds []Bounds, status []Status) {
	for i := range bounds {
		if status[i] != Unknown {
			continue
		}
		if u := upperBound(t, i); u < bounds[i].U {
			bounds[i].U = u
		}
	}
}

// upperBound computes Eq. 4 with q_ij.u substituted for q_ij.l.
func upperBound(t *subregion.Table, i int) float64 {
	sum := 0.0
	for j := 0; j < t.NumSubregions()-1; j++ {
		if s := t.S(i, j); s > 0 {
			sum += s * SubregionUpper(t, i, j)
		}
	}
	return sum
}

// SubregionLower returns q_ij.l, the Lemma 2 lower bound on the probability
// that X_i is the nearest neighbor given R_i ∈ S_j.
//
// When c_j > 1 this is Pr(E)/c_j with Pr(E) = Π_{k≠i}(1 − D_k(e_j)). When
// c_j == 1 the candidate is alone in the subregion and Pr(E) itself is the
// exact value; under the paper's standing assumption (non-zero density
// everywhere in each uncertainty region) that case only arises in S_1 where
// Pr(E) = 1, matching the lemma's stated value.
func SubregionLower(t *subregion.Table, i, j int) float64 {
	c := t.Count(j)
	if c <= 1 {
		return t.Excl(i, j)
	}
	return t.Excl(i, j) / float64(c)
}

// SubregionUpper returns q_ij.u of Eq. 11: ½(Pr(E) + Pr(F)), where Pr(E) and
// Pr(F) are the probabilities that every other candidate lies beyond e_j and
// e_{j+1} respectively.
func SubregionUpper(t *subregion.Table, i, j int) float64 {
	return (t.Excl(i, j) + t.Excl(i, j+1)) / 2
}

// DefaultChain returns the paper's verifier order: cheapest first (Fig. 5).
func DefaultChain() []Verifier { return []Verifier{RS{}, LSR{}, USR{}} }

// Result is the outcome of running a verifier chain.
type Result struct {
	// Bounds holds the final probability bounds per local candidate index.
	Bounds []Bounds
	// Status holds the final classifier labels.
	Status []Status
	// Applied lists the names of the verifiers that actually ran.
	Applied []string
	// UnknownAfter[k] is the number of unknown candidates after Applied[k]
	// ran — the series of paper Fig. 12.
	UnknownAfter []int
}

// Run initializes every candidate to bounds [0, 1] and status unknown, then
// applies the verifiers in order, classifying after each and stopping early
// once no candidate remains unknown (paper Fig. 5).
func Run(t *subregion.Table, c Constraint, verifiers []Verifier) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := t.NumCandidates()
	res := &Result{
		Bounds: make([]Bounds, n),
		Status: make([]Status, n),
	}
	for i := range res.Bounds {
		res.Bounds[i] = Bounds{L: 0, U: 1}
	}
	unknown := n
	if n > 0 && len(verifiers) > 0 {
		res.Applied = make([]string, 0, len(verifiers))
		res.UnknownAfter = make([]int, 0, len(verifiers))
	}
	for _, v := range verifiers {
		if unknown == 0 {
			break
		}
		v.Apply(t, res.Bounds, res.Status)
		unknown = 0
		for i := range res.Status {
			if res.Status[i] != Unknown {
				continue
			}
			res.Status[i] = Classify(res.Bounds[i], c)
			if res.Status[i] == Unknown {
				unknown++
			}
		}
		res.Applied = append(res.Applied, v.Name())
		res.UnknownAfter = append(res.UnknownAfter, unknown)
	}
	return res, nil
}
