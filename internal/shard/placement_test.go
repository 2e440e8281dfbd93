package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pdf"
	"repro/internal/store"
)

// placementCluster is a 2-shard cluster cut at x = 100: region centres at or
// below 100 place on shard 0, the rest on shard 1.
func placementCluster(t *testing.T) (*Cluster, *Router) {
	t.Helper()
	c, err := CreateClusterCuts(t.TempDir(), []float64{100}, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

// shardIDs returns the live 1-D stable IDs each member store holds.
func shardIDs(c *Cluster) [][]uint64 {
	out := make([][]uint64, len(c.Stores))
	for i, st := range c.Stores {
		out[i] = append([]uint64{}, st.View().IDs...)
	}
	return out
}

func versions(r *Router) []uint64 {
	out := make([]uint64, len(r.members))
	for i, m := range r.members {
		out[i] = m.Version()
	}
	return out
}

// TestRouterPlacement: validation is the store's; what the router still
// decides is where each op goes. Every op of an in-batch chain on one ID
// lands on the shard the insert was placed on — even when an update moves
// the region across the cut — and a truncate forgets earlier placements.
func TestRouterPlacement(t *testing.T) {
	ctx := context.Background()
	left, right, farRight := pdf.MustUniform(10, 20), pdf.MustUniform(500, 510), pdf.MustUniform(900, 910)

	t.Run("insert-update-delete chain stays on the insert's shard", func(t *testing.T) {
		c, r := placementCluster(t)
		before := versions(r)
		// A fresh cluster numbers from 1, so the chain can address its own insert.
		res, err := r.Apply(ctx, []store.Op{
			store.InsertObject(left),
			store.UpdateObject(1, right), // centre now past the cut: must not re-place
			store.InsertObject(farRight),
			store.Delete(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 1, 2, 1}; !reflect.DeepEqual(res.IDs, want) {
			t.Fatalf("IDs = %v, want %v", res.IDs, want)
		}
		if got, want := shardIDs(c), [][]uint64{{}, {2}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("per-shard IDs = %v, want %v", got, want)
		}
		// One segment per shard: the whole chain reached shard 0 as one commit.
		after := versions(r)
		if after[0] != before[0]+1 || after[1] != before[1]+1 {
			t.Fatalf("versions %v -> %v, want one commit per shard", before, after)
		}
		// Without the delete, the moved object is still served by shard 0.
		res, err = r.Apply(ctx, []store.Op{store.InsertObject(left), store.UpdateObject(3, right)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := shardIDs(c), [][]uint64{{3}, {2}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("per-shard IDs after sticky update = %v, want %v", got, want)
		}
		if sup := c.Stores[0].View().Dataset.Object(0).PDF.Support(); sup != right.Support() {
			t.Fatalf("shard 0 holds support %v, want the updated %v", sup, right.Support())
		}
		// A later batch finds it through the owner map, not the cuts.
		if _, err := r.Apply(ctx, []store.Op{store.Delete(res.IDs[0])}); err != nil {
			t.Fatal(err)
		}
		if got, want := shardIDs(c), [][]uint64{{}, {2}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("per-shard IDs after delete = %v, want %v", got, want)
		}
	})

	t.Run("truncate then re-insert places afresh", func(t *testing.T) {
		c, r := placementCluster(t)
		if _, err := r.Apply(ctx, []store.Op{store.InsertObject(left)}); err != nil {
			t.Fatal(err)
		}
		res, err := r.Apply(ctx, []store.Op{
			store.UpdateObject(1, right), // sticky: shard 0, before the barrier
			store.Truncate(),
			store.InsertObject(right),    // ID 2, placed by its centre: shard 1
			store.UpdateObject(2, left),  // sticky to the new placement
			store.InsertObject(farRight), // ID 3
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 0, 2, 2, 3}; !reflect.DeepEqual(res.IDs, want) {
			t.Fatalf("IDs = %v, want %v", res.IDs, want)
		}
		if got, want := shardIDs(c), [][]uint64{{}, {2, 3}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("per-shard IDs = %v, want %v", got, want)
		}
		if r.Objects() != 2 {
			t.Fatalf("router counts %d objects, want 2", r.Objects())
		}
	})
}

// TestRouterRejectsLikeAStore: for the same history and the same bad batch,
// the router's error is a single store's, byte for byte, and a rejected
// batch — even one whose leading ops are valid — commits on no member.
func TestRouterRejectsLikeAStore(t *testing.T) {
	ctx := context.Background()
	_, r := placementCluster(t)
	single, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	setup := []store.Op{store.InsertObject(pdf.MustUniform(0, 1)), store.InsertObject(pdf.MustUniform(1, 2))}
	if _, err := r.Apply(ctx, setup); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Apply(setup); err != nil {
		t.Fatal(err)
	}
	valid := store.InsertObject(pdf.MustUniform(500, 510))
	gauss, err := pdf.PaperGaussian(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]store.Op{
		"unknown update":        {valid, store.UpdateObject(99, pdf.MustUniform(0, 1))},
		"unknown delete":        {valid, store.Delete(99)},
		"delete id zero":        {store.Delete(0)},
		"disk insert":           {valid, {Code: store.OpDisk}},
		"disk update":           {valid, {Code: store.OpDisk, ID: 2}},
		"unsupported pdf":       {valid, {Code: store.OpUniform, PDF: gauss}},
		"nil pdf":               {{Code: store.OpHist}},
		"unknown code":          {valid, {Code: 42}},
		"update after truncate": {valid, store.Truncate(), store.UpdateObject(1, pdf.MustUniform(0, 1))},
		"delete then update":    {store.Delete(1), store.UpdateObject(1, pdf.MustUniform(0, 1))},
	} {
		before := versions(r)
		_, rerr := r.Apply(ctx, bad)
		_, serr := single.Apply(bad)
		if rerr == nil || serr == nil {
			t.Fatalf("%s: router err %v, store err %v; both must reject", name, rerr, serr)
		}
		if rerr.Error() != serr.Error() {
			t.Errorf("%s: router says %q, a store says %q", name, rerr, serr)
		}
		if after := versions(r); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: member versions moved %v -> %v on a rejected batch", name, before, after)
		}
	}
	// Both still accept the valid op, under the same ID.
	rres, rerr := r.Apply(ctx, []store.Op{valid})
	sres, serr := single.Apply([]store.Op{valid})
	if rerr != nil || serr != nil || fmt.Sprint(rres.IDs) != fmt.Sprint(sres.IDs) {
		t.Fatalf("after the rejects: router %v %v, store %v %v", rres.IDs, rerr, sres.IDs, serr)
	}
}
