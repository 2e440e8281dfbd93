package store

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// TestWatchDeliversChanges walks one subscription through inserts, updates,
// deletes and a truncation, checking every delta's view, kinds and rects.
func TestWatchDeliversChanges(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sub, err := s.Watch(16)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	res, err := s.Apply([]Op{
		InsertObject(pdf.MustUniform(0, 10)),
		InsertObject(pdf.MustUniform(20, 30)),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if d.Gap || d.Truncated {
		t.Fatalf("unexpected gap/truncated delta: %+v", d)
	}
	if d.View.Version != res.Version {
		t.Fatalf("delta view version %d, want %d", d.View.Version, res.Version)
	}
	if len(d.Changes) != 2 {
		t.Fatalf("got %d changes, want 2", len(d.Changes))
	}
	if d.Changes[0].Kind != ChangeInsert || d.Changes[0].ID != res.IDs[0] {
		t.Fatalf("change[0] = %+v, want insert of id %d", d.Changes[0], res.IDs[0])
	}
	if got, want := d.Changes[0].NewRect, geom.RectFromInterval(geom.Interval{Lo: 0, Hi: 10}); got != want {
		t.Fatalf("insert NewRect = %+v, want %+v", got, want)
	}

	// Update: both rects populated, old is the pre-batch region.
	if _, err := s.Apply([]Op{UpdateObject(res.IDs[0], pdf.MustUniform(5, 15))}); err != nil {
		t.Fatal(err)
	}
	d = <-sub.C()
	if len(d.Changes) != 1 || d.Changes[0].Kind != ChangeUpdate {
		t.Fatalf("update delta = %+v", d)
	}
	if d.Changes[0].OldRect.MinX != 0 || d.Changes[0].OldRect.MaxX != 10 {
		t.Fatalf("update OldRect = %+v, want [0,10]", d.Changes[0].OldRect)
	}
	if d.Changes[0].NewRect.MinX != 5 || d.Changes[0].NewRect.MaxX != 15 {
		t.Fatalf("update NewRect = %+v, want [5,15]", d.Changes[0].NewRect)
	}

	// Delete emits the old rect (the object updated to [5,15] above).
	if _, err := s.Apply([]Op{Delete(res.IDs[0])}); err != nil {
		t.Fatal(err)
	}
	d = <-sub.C()
	if len(d.Changes) != 1 || d.Changes[0].Kind != ChangeDelete {
		t.Fatalf("delete delta = %+v", d)
	}
	if d.Changes[0].OldRect.MinX != 5 || d.Changes[0].OldRect.MaxX != 15 {
		t.Fatalf("delete OldRect = %+v, want [5,15]", d.Changes[0].OldRect)
	}

	// Truncation subsumes per-object records.
	if _, err := s.Apply([]Op{Truncate(), InsertObject(pdf.MustUniform(1, 2))}); err != nil {
		t.Fatal(err)
	}
	d = <-sub.C()
	if !d.Truncated {
		t.Fatalf("expected truncated delta, got %+v", d)
	}
	if len(d.Changes) != 1 || d.Changes[0].Kind != ChangeInsert {
		t.Fatalf("post-truncate changes = %+v", d.Changes)
	}
}

// TestWatchGapOnLag proves the backpressure contract: a subscriber that lets
// its buffer fill loses intermediate deltas but finds a Gap marker waiting
// in its reserved slot WITHOUT any further commit having to happen — the
// liveness property continuous monitoring depends on. Catching up from
// Store.View() then covers every dropped version, and the stream resumes.
func TestWatchGapOnLag(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sub, err := s.Watch(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Commit more batches than the buffer holds, without receiving. The
	// writer then goes quiet — the gap must still surface.
	var last ApplyResult
	for i := 0; i < 6; i++ {
		if last, err = s.Apply([]Op{InsertObject(pdf.MustUniform(float64(i), float64(i)+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().FeedDropped == 0 {
		t.Fatal("expected dropped deltas on a full buffer")
	}

	// One buffered delta, then the reserved-slot Gap — with no extra commit.
	d1 := <-sub.C()
	if d1.Gap || len(d1.Changes) != 1 {
		t.Fatalf("first delta = %+v, want a normal delta", d1)
	}
	d2 := <-sub.C()
	if !d2.Gap {
		t.Fatalf("expected the reserved-slot gap, got %+v", d2)
	}
	if d2.Changes != nil {
		t.Fatalf("gap delta carries changes: %+v", d2.Changes)
	}
	// The catch-up contract: Store.View() at read time covers every drop.
	if v := s.View(); v.Version != last.Version {
		t.Fatalf("latest view %d, want %d (catch-up source)", v.Version, last.Version)
	}

	// Stream resumes normally once drained.
	res, err := s.Apply([]Op{InsertObject(pdf.MustUniform(200, 201))})
	if err != nil {
		t.Fatal(err)
	}
	d3 := <-sub.C()
	if d3.Gap || d3.View.Version != res.Version || len(d3.Changes) != 1 {
		t.Fatalf("post-gap delta = %+v, want normal delta at version %d", d3, res.Version)
	}
}

// TestWatchCloseSemantics: closing a sub stops delivery; closing the store
// closes every remaining channel; Watch on a closed store errors.
func TestWatchCloseSemantics(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	a, err := s.Watch(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Watch(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().FeedSubscribers; got != 2 {
		t.Fatalf("FeedSubscribers = %d, want 2", got)
	}
	a.Close()
	a.Close() // idempotent
	if _, ok := <-a.C(); ok {
		t.Fatal("closed sub's channel should be closed")
	}
	if _, err := s.Apply([]Op{InsertObject(pdf.MustUniform(0, 1))}); err != nil {
		t.Fatal(err)
	}
	if d := <-b.C(); d.Gap || len(d.Changes) != 1 {
		t.Fatalf("live sub delta = %+v", d)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-b.C(); ok {
		t.Fatal("store close should close remaining subscriptions")
	}
	if _, err := s.Watch(4); err != ErrClosed {
		t.Fatalf("Watch on closed store: err = %v, want ErrClosed", err)
	}
}

// TestWatchGroupCommitOneDelta: batches group-committed together publish one
// delta covering the whole group.
func TestWatchGroupCommitOneDelta(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub, err := s.Watch(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// One Apply with several ops is certainly one group.
	ops := []Op{
		InsertObject(pdf.MustUniform(0, 1)),
		InsertObject(pdf.MustUniform(2, 3)),
		InsertObject(pdf.MustUniform(4, 5)),
	}
	res, err := s.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if len(d.Changes) != 3 || d.View.Version != res.Version {
		t.Fatalf("delta = %+v, want 3 changes at version %d", d, res.Version)
	}
	if d.View.Dataset.Len() != 3 {
		t.Fatalf("delta view holds %d objects, want 3", d.View.Dataset.Len())
	}
}

// TestOfferLossy walks the lossy-feed protocol step by step on a capacity-4
// channel: values fill all but the reserved last slot, the marker lands in
// that slot, every offer is dropped while any backlog remains, and delivery
// resumes once the consumer has drained to empty.
func TestOfferLossy(t *testing.T) {
	const marker = -1
	ch := make(chan int, 4)
	lagging := false
	steps := []struct {
		name    string
		drain   int // receives before the offer
		offer   int
		sent    bool
		lagging bool
		backlog []int // channel contents after the offer, oldest first
	}{
		{"fill 1", 0, 1, true, false, []int{1}},
		{"fill 2", 0, 2, true, false, []int{1, 2}},
		{"fill 3: last free slot before the reserved one", 0, 3, true, false, []int{1, 2, 3}},
		{"overflow: marker takes the reserved slot", 0, 4, false, true, []int{1, 2, 3, marker}},
		{"dropped while full", 0, 5, false, true, []int{1, 2, 3, marker}},
		{"dropped while partly drained", 2, 6, false, true, []int{3, marker}},
		{"dropped with only the marker left", 1, 7, false, true, []int{marker}},
		{"resumes after a full drain", 1, 8, true, false, []int{8}},
		{"keeps delivering", 0, 9, true, false, []int{8, 9}},
	}
	for _, st := range steps {
		for i := 0; i < st.drain; i++ {
			<-ch
		}
		if sent := OfferLossy(ch, &lagging, st.offer, marker); sent != st.sent || lagging != st.lagging {
			t.Fatalf("%s: sent=%v lagging=%v, want sent=%v lagging=%v", st.name, sent, lagging, st.sent, st.lagging)
		}
		// Peek at the backlog by cycling it through the channel once.
		got := make([]int, len(ch))
		for i := range got {
			got[i] = <-ch
		}
		for _, v := range got {
			ch <- v
		}
		if !reflect.DeepEqual(got, st.backlog) {
			t.Fatalf("%s: backlog %v, want %v", st.name, got, st.backlog)
		}
	}
}
