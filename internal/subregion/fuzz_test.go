package subregion

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/pdf"
)

// candsFromFuzz turns raw fuzz floats into a filtered candidate set by
// treating consecutive pairs as uniform uncertainty regions around a query
// at 0 and deriving their exact distance pdfs — the same path a real query
// takes, so Build must accept the survivors of the near-point prune.
func candsFromFuzz(vals []float64) []Candidate {
	var cands []Candidate
	fMin := math.Inf(1)
	for i := 0; i+1 < len(vals); i += 2 {
		lo, ln := vals[i], vals[i+1]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.Abs(lo) > 1e9 {
			return nil
		}
		if math.IsNaN(ln) || ln <= 1e-9 || ln > 1e9 {
			return nil
		}
		u, err := pdf.NewUniform(lo, lo+ln)
		if err != nil {
			return nil
		}
		d, err := dist.FromPDF(u, 0)
		if err != nil {
			return nil
		}
		fMin = math.Min(fMin, d.Support().Hi)
		cands = append(cands, Candidate{ID: len(cands), Dist: d})
	}
	kept := cands[:0]
	for _, c := range cands {
		if c.Dist.Support().Lo <= fMin {
			kept = append(kept, c)
		}
	}
	return kept
}

// tablesEqual reports whether two tables coincide bit for bit in shape, k,
// cut, f_max, candidate order and every matrix entry.
func tablesEqual(a, b *Table) bool {
	if a.NumCandidates() != b.NumCandidates() || a.NumSubregions() != b.NumSubregions() ||
		a.K() != b.K() || a.Cut() != b.Cut() || a.FMax() != b.FMax() {
		return false
	}
	m := a.NumSubregions()
	for i := 0; i < a.NumCandidates(); i++ {
		if a.IDs()[i] != b.IDs()[i] {
			return false
		}
		for j := 0; j <= m; j++ {
			if a.D(i, j) != b.D(i, j) || a.Excl(i, j) != b.Excl(i, j) {
				return false
			}
		}
		for j := 0; j < m; j++ {
			if a.S(i, j) != b.S(i, j) {
				return false
			}
		}
	}
	for j := 0; j <= m; j++ {
		if a.Endpoints()[j] != b.Endpoints()[j] || a.Y(j) != b.Y(j) {
			return false
		}
	}
	for j := 0; j < m; j++ {
		if a.Count(j) != b.Count(j) {
			return false
		}
	}
	return true
}

// FuzzIncrementalPatch: re-deriving one candidate's fold (or evicting it)
// and rebuilding the live table over its own storage must be exactly
// equivalent to a fresh Build of the edited candidate set — the invariant
// the monitor's incremental re-verification path rests on. The edited set
// is assembled as that path assembles it, survivors first and the
// re-derived candidate last, so it also differs in order from the fresh
// Build's input. The last fuzz float repositions one candidate's region.
func FuzzIncrementalPatch(f *testing.F) {
	f.Add(-1.0, 2.0, 0.5, 1.0, -3.0, 4.0, 1.5)
	f.Add(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.25)
	f.Add(-0.5, 1e-6, 0.5, 2.0, 1.0, 0.25, -2.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, move float64) {
		cands := candsFromFuzz([]float64{a, b, c, d, e, g})
		if len(cands) < 2 {
			return
		}
		if math.IsNaN(move) || math.IsInf(move, 0) || math.Abs(move) > 1e9 {
			return
		}
		tb, err := Build(cands)
		if err != nil {
			return
		}

		// Re-derive candidate 0's fold as if its object moved by `move`,
		// keeping the near-point prune satisfied (skip otherwise — the real
		// pipeline re-filters before rebuilding).
		moved := cands[0].Dist.Support()
		u, err := pdf.NewUniform(moved.Lo+move, moved.Hi+move)
		if err != nil {
			return
		}
		nd, err := dist.FromPDF(u, 0)
		if err != nil {
			return
		}
		edited := append([]Candidate(nil), cands...)
		edited[0] = Candidate{ID: cands[0].ID, Dist: nd}
		fMin := math.Inf(1)
		for _, cd := range edited {
			fMin = math.Min(fMin, cd.Dist.Support().Hi)
		}
		for _, cd := range edited {
			if cd.Dist.Support().Lo > fMin {
				return // edit would violate the filter invariant; the pipeline re-filters
			}
		}

		assembled := append(slices.Clone(edited[1:]), edited[0])
		if err := tb.Rebuild(assembled, 1); err != nil {
			t.Fatalf("Rebuild of the edited set failed: %v", err)
		}
		fresh, err := Build(edited)
		if err != nil {
			t.Fatalf("Build on edited set failed where Rebuild succeeded: %v", err)
		}
		if !tablesEqual(tb, fresh) {
			t.Fatal("rebuilt table differs from fresh Build after re-deriving a candidate")
		}

		// Evict the same candidate. Removing a candidate can only raise
		// f_min, so the survivors stay filter-consistent and Rebuild and
		// Build must agree on accepting them.
		rest := edited[1:]
		if err := tb.Rebuild(rest, 1); err != nil {
			if _, berr := Build(rest); berr == nil {
				t.Fatalf("Rebuild after evict failed where Build succeeded: %v", err)
			}
			return
		}
		fresh, err = Build(rest)
		if err != nil {
			t.Fatalf("Build on evicted set failed where Rebuild succeeded: %v", err)
		}
		if !tablesEqual(tb, fresh) {
			t.Fatal("rebuilt table differs from fresh Build after evict")
		}
	})
}

// FuzzBuild: the subregion decomposition must never panic on any filtered
// candidate set, every table it builds must satisfy the paper's structural
// invariants and equal the four-pass reference fill bit for bit, and a
// Rebuild into a dirty table must reproduce a fresh Build exactly, whatever
// order the candidates arrive in — the invariant the monitor's incremental
// re-verification rests on, since it assembles a candidate set in filter
// order over storage a previous set left behind.
func FuzzBuild(f *testing.F) {
	f.Add(-1.0, 2.0, 0.5, 1.0, -3.0, 4.0)
	f.Add(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
	f.Add(-0.5, 1e-6, 0.5, 2.0, 1.0, 0.25)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		cands := candsFromFuzz([]float64{a, b, c, d, e, g})
		if len(cands) == 0 {
			return
		}
		tb, err := Build(cands)
		if err != nil {
			return // rejecting a degenerate set is fine; panicking is not
		}
		if what := matchesReference(tb); what != "" {
			t.Fatalf("fused fill's %s differs from the four-pass reference", what)
		}

		m := tb.NumSubregions()
		ends := tb.Endpoints()
		if m < 1 || len(ends) != m+1 {
			t.Fatalf("table has %d subregions but %d end-points", m, len(ends))
		}
		for j := 1; j < len(ends); j++ {
			if !(ends[j] > ends[j-1]) {
				t.Fatalf("end-points not strictly ascending at %d: %v", j, ends)
			}
		}
		for i := 0; i < tb.NumCandidates(); i++ {
			sum, prev := 0.0, -1.0
			for j := 0; j <= m; j++ {
				dv := tb.D(i, j)
				if dv < prev-1e-12 || dv < -1e-12 || dv > 1+1e-12 {
					t.Fatalf("candidate %d: cdf not monotone in [0,1] at end-point %d", i, j)
				}
				prev = dv
				ev := tb.Excl(i, j)
				if ev < -1e-12 || ev > 1+1e-12 {
					t.Fatalf("candidate %d: exclusive product %g outside [0,1]", i, ev)
				}
				if math.Abs(ev*(1-dv)-tb.Y(j)) > 1e-9 {
					t.Fatalf("candidate %d end-point %d: Excl*(1-D) != Y", i, j)
				}
			}
			for j := 0; j < m; j++ {
				s := tb.S(i, j)
				if s < 0 {
					t.Fatalf("candidate %d: negative subregion probability", i)
				}
				sum += s
			}
			if sum > 1+1e-9 {
				t.Fatalf("candidate %d: subregion masses sum to %g > 1", i, sum)
			}
		}
		for j := 0; j < m; j++ {
			n := 0
			for i := 0; i < tb.NumCandidates(); i++ {
				if tb.S(i, j) > 0 {
					n++
				}
			}
			if n != tb.Count(j) {
				t.Fatalf("subregion %d: Count=%d but %d candidates have mass", j, tb.Count(j), n)
			}
		}

		// Rebuild into a dirty table must match the fresh build bit for bit,
		// in the input order and reversed.
		dirty := new(Table)
		if err := dirty.Rebuild(cands[:1], 1); err != nil {
			t.Fatal(err)
		}
		if err := dirty.Rebuild(cands, 1); err != nil {
			t.Fatalf("Rebuild failed where Build succeeded: %v", err)
		}
		if !tablesEqual(dirty, tb) {
			t.Fatal("Rebuild into a dirty table differs from fresh Build")
		}
		reversed := slices.Clone(cands)
		slices.Reverse(reversed)
		if err := dirty.Rebuild(reversed, 1); err != nil {
			t.Fatalf("Rebuild of the reversed set failed where Build succeeded: %v", err)
		}
		if !tablesEqual(dirty, tb) {
			t.Fatal("Rebuild of the reversed set differs from fresh Build")
		}
	})
}
