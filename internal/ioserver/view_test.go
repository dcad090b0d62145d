package ioserver

import (
	"errors"
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// requireRefused holds both ends of the view protocol to SetView's rule
// for a view it refuses: a server answers the registration with a bad
// request and caches nothing, and the client refuses it as permanent
// before any request leaves.
func requireRefused(tb testing.TB, agg *Striped, disp int64, ft *datatype.Type) {
	tb.Helper()
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64, Count: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	st := localConn(srv)
	if _, err := st.dispatch(opRegister, append(putV(nil, disp), datatype.Encode(ft)...)); !errors.Is(err, errBadRequest) {
		tb.Fatalf("%v at %d: the server answers its registration with %v, want a bad request", ft, disp, err)
	}
	if len(st.views) != 0 || srv.Stats().ViewRegistrations != 0 {
		tb.Fatalf("%v at %d: the server cached a view it refused", ft, disp)
	}
	before := agg.Rounds()
	if _, err := agg.RegisterView(disp, ft); !errors.Is(err, storage.ErrPermanent) {
		tb.Fatalf("%v at %d: the client registers it with %v, want a permanent refusal", ft, disp, err)
	}
	if n := agg.Rounds() - before; n != 0 {
		tb.Fatalf("%v at %d: the client's refusal cost %d round trips", ft, disp, n)
	}
}

// TestRegisterRefusesWhatSetViewRefuses: a view whose type map does not
// ascend, a filetype that places data at a negative offset, and a
// negative displacement are refused at both ends; a legal view still
// registers on the same tier after them.
func TestRegisterRefusesWhatSetViewRefuses(t *testing.T) {
	agg, servers := startServers(t, 64, 2, nil)
	descending, err := datatype.Hindexed([]int64{2, 2}, []int64{4, 0}, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	below, err := datatype.Hindexed([]int64{4}, []int64{-4}, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	legal := viewType(t, 2, 4, 2)
	for _, tc := range []struct {
		name string
		disp int64
		ft   *datatype.Type
	}{
		{"non-monotone", 0, descending},
		{"negative trueLB", 16, below},
		{"negative displacement", -1, legal},
	} {
		if datatype.ValidateFiletype(datatype.Byte, tc.ft) == nil && tc.disp >= 0 {
			t.Fatalf("%s: SetView would accept it", tc.name)
		}
		requireRefused(t, agg, tc.disp, tc.ft)
	}
	if _, err := agg.RegisterView(0, legal); err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if n := srv.Stats().ViewRegistrations; n != 1 {
			t.Errorf("server %d registered %d views, want the legal one", i, n)
		}
	}
}

// TestSizeZeroView: a legal filetype with no data, which SetView accepts
// and registers on the tier (it is not contiguous-tiled), registers at
// both ends; a read of any range answers 0 bytes, a write carrying bytes
// is a bad request, staged or not, and the client's accesses of no data
// send nothing.
func TestSizeZeroView(t *testing.T) {
	empty, err := datatype.Hindexed([]int64{0}, []int64{8}, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	if datatype.ValidateFiletype(datatype.Byte, empty) != nil || empty.ContiguousTiled() || empty.Size() != 0 {
		t.Fatalf("%v is not a legal, registered filetype of no data", empty)
	}
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := localConn(srv)
	v := st.register(t, 0, empty)
	if got, err := st.viewOp(opViewRead, v, 0, 4096, nil); err != nil || len(got) != 0 {
		t.Fatalf("a read of [0,4096) answers %d bytes (%v), want 0", len(got), err)
	}
	if _, err := st.viewOp(opViewWrite, v, 0, 4096, []byte("ab")); !errors.Is(err, errBadRequest) {
		t.Fatalf("a write of 2 bytes answers %v, want a bad request", err)
	}
	staged := append(putViewHead(putEpoch(nil, 1), v.handle, 0, 4096), "ab"...)
	if _, err := st.dispatch(opStageViewWrite, staged); !errors.Is(err, errBadRequest) {
		t.Fatalf("a staged write of 2 bytes answers %v, want a bad request", err)
	}
	if _, err := st.viewOp(opViewWrite, v, 0, 4096, nil); err != nil {
		t.Fatalf("a write of no bytes: %v", err)
	}

	agg, _ := startServers(t, 64, 2, nil)
	h, err := agg.RegisterView(0, empty)
	if err != nil {
		t.Fatal(err)
	}
	before := agg.Rounds()
	if err := agg.ViewWrite(h, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := agg.ViewRead(h, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := agg.Rounds() - before; n != 0 {
		t.Fatalf("accesses of no data cost %d round trips", n)
	}
}

// TestViewReadReplySizedToShare: a view read's reply holds what the
// stripe owns of the range, not the range: a stripe that owns none of
// it allocates nothing, and otherwise the reply's capacity is at most
// twice the bytes it returns.
func TestViewReadReplySizedToShare(t *testing.T) {
	g := storage.StripeGeom{Unit: 64 << 10, Count: 2}
	for _, tc := range []struct {
		name   string
		stride int64
	}{
		{"8 B every 128 KiB: stripe 0 owns all", 128 << 10},
		{"8 B every 96 KiB: both stripes own some", 96 << 10},
	} {
		ft := viewType(t, 8, tc.stride, 4096)
		var returned int64
		for i := 0; i < g.Count; i++ {
			srv, err := New(Config{Backend: storage.NewMem(), Geom: g, Index: i})
			if err != nil {
				t.Fatal(err)
			}
			st := localConn(srv)
			got, err := st.viewOp(opViewRead, st.register(t, 0, ft), 0, 32<<10, nil)
			if err != nil {
				t.Fatal(err)
			}
			returned += int64(len(got))
			if c := cap(st.resp); (len(got) == 0 && c != 0) || c > 2*len(got) {
				t.Errorf("%s: stripe %d returned %d bytes from a %d-byte reply buffer", tc.name, i, len(got), c)
			}
		}
		if returned != 32<<10 {
			t.Errorf("%s: the stripes returned %d bytes of a 32 KiB read", tc.name, returned)
		}
	}
}
