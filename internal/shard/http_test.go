package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestHTTPMemberDecodesWire holds HTTPMember's decoding to the member wire's
// pinned JSON replies (the encoding side is pinned in internal/server's
// TestShardWireBytes): a router must read a member of another build exactly,
// populated or empty. The older build's info replies also listed the
// member's 2-D disk IDs under "ids_2d"; a router reads past them.
func TestHTTPMemberDecodesWire(t *testing.T) {
	for _, tc := range []struct {
		name        string
		info, bound string
		wantInfo    MemberInfo
		wantBound   BoundInfo
	}{
		{
			name:  "populated",
			info:  `{"ids_1d":[1,3],"next_id":4,"version":1,"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true}`,
			bound: `{"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true,"fars":[8.25,33],"version":1}`,
			wantInfo: MemberInfo{IDs1D: []uint64{1, 3}, NextID: 4, Version: 1,
				Extent: geom.Rect{MinX: 10.5, MaxX: 45}, HasExtent: true},
			wantBound: BoundInfo{Extent: geom.Rect{MinX: 10.5, MaxX: 45}, HasExtent: true,
				Fars: []float64{8.25, 33}, Version: 1},
		},
		{
			name:  "populated older build",
			info:  `{"ids_1d":[1,3],"ids_2d":[2],"next_id":4,"version":1,"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true}`,
			bound: `{"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true,"fars":[8.25,33],"version":1}`,
			wantInfo: MemberInfo{IDs1D: []uint64{1, 3}, NextID: 4, Version: 1,
				Extent: geom.Rect{MinX: 10.5, MaxX: 45}, HasExtent: true},
			wantBound: BoundInfo{Extent: geom.Rect{MinX: 10.5, MaxX: 45}, HasExtent: true,
				Fars: []float64{8.25, 33}, Version: 1},
		},
		{
			name:      "empty",
			info:      `{"ids_1d":null,"next_id":1,"version":0,"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false}`,
			bound:     `{"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false,"fars":null,"version":0}`,
			wantInfo:  MemberInfo{NextID: 1},
			wantBound: BoundInfo{},
		},
		{
			name:      "empty older build",
			info:      `{"ids_1d":null,"ids_2d":null,"next_id":1,"version":0,"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false}`,
			bound:     `{"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false,"fars":null,"version":0}`,
			wantInfo:  MemberInfo{NextID: 1},
			wantBound: BoundInfo{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/internal/shard/info":
					w.Write([]byte(tc.info + "\n"))
				case "/internal/shard/bound":
					w.Write([]byte(tc.bound + "\n"))
				default:
					http.NotFound(w, r)
				}
			}))
			defer ts.Close()
			m := NewHTTPMember(ts.URL, nil)
			defer m.Close()
			info, err := m.Info()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(info, tc.wantInfo) {
				t.Errorf("info %+v, want %+v", info, tc.wantInfo)
			}
			b, err := m.Bound(context.Background(), 12, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, tc.wantBound) {
				t.Errorf("bound %+v, want %+v", b, tc.wantBound)
			}
		})
	}
}
