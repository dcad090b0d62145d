package ioserver

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// TestOpTable: the table is in code order (opFor indexes it by code),
// every staged op wraps a mutation the server settles for, shares its
// handler and leads with an epoch, and nothing else is anybody's twin.
func TestOpTable(t *testing.T) {
	names := map[string]bool{}
	for i, op := range opTable {
		if op.code != opRead-i || opFor(op.code) != &opTable[i] {
			t.Errorf("row %d (%s) holds code %d, want %d", i, op.name, op.code, opRead-i)
		}
		if op.name == "" || names[op.name] {
			t.Errorf("row %d: name %q is empty or taken", i, op.name)
		}
		names[op.name] = true
		if op.direct == 0 {
			if stagedOp(op.code) != op.code && !op.mutates {
				t.Errorf("%s has a staged twin but is no mutation", op.name)
			}
			continue
		}
		d := opFor(op.direct)
		if d == nil || !d.mutates || d.epoch || !op.epoch || op.mutates ||
			reflect.ValueOf(d.serve).Pointer() != reflect.ValueOf(op.serve).Pointer() || stagedOp(d.code) != op.code {
			t.Errorf("%s is no staged twin of op %d", op.name, op.direct)
		}
	}
	for _, tag := range []int{opRead + 1, opRead - len(opTable), 0, 7} {
		if opFor(tag) != nil {
			t.Errorf("tag %d found a row", tag)
		}
	}
}

// TestWireShapes: for every shape, what the encoder wrote the decoder
// reads back, and every proper prefix of it is a truncated payload —
// never a panic, never another value.
func TestWireShapes(t *testing.T) {
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64, Count: 3}, MaxFrame: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lim := srv.lim
	segs := []storage.Segment{{Off: 0, Buf: make([]byte, 3)}, {Off: 1 << 40, Buf: make([]byte, 300)}, {Off: 77, Buf: nil}}
	stats := ServerStats{}
	for i, field := range serverCounters {
		*field(&stats) = int64(i+1) << (3 * i)
	}
	for _, shape := range []struct {
		name   string
		enc    []byte
		decode func([]byte) (any, []byte, error)
		want   any
	}{
		{"extent", putExtent(nil, 1<<33, 4096), func(b []byte) (any, []byte, error) {
			e, rest, err := lim.getExtent(b)
			return e, rest, err
		}, extent{1 << 33, 4096}},
		{"offset list", putList(nil, segs), func(b []byte) (any, []byte, error) {
			ents, total, rest, err := lim.getList(b, nil)
			return []any{ents, total}, rest, err
		}, []any{[]extent{{0, 3}, {1 << 40, 300}, {77, 0}}, int64(303)}},
		{"empty list", putList(nil, nil), func(b []byte) (any, []byte, error) {
			ents, total, rest, err := lim.getList(b, nil)
			return []any{ents, total}, rest, err
		}, []any{[]extent(nil), int64(0)}},
		{"view head", putViewHead(nil, 1<<20, 5, 1<<20), func(b []byte) (any, []byte, error) {
			h, d0, d1, rest, err := lim.getViewHead(b)
			return []any{h, d0, d1}, rest, err
		}, []any{uint64(1 << 20), int64(5), int64(1 << 20)}},
		{"epoch prefix", putEpoch(nil, 1<<40), func(b []byte) (any, []byte, error) {
			e, rest, err := getEpoch(b)
			return e, rest, err
		}, uint64(1 << 40)},
		{"seal reply", putVs(nil, math.MinInt64, 9, 1<<50), func(b []byte) (any, []byte, error) {
			var inc, count, bytes int64
			rest, err := getVs(b, &inc, &count, &bytes)
			return []int64{inc, count, bytes}, rest, err
		}, []int64{math.MinInt64, 9, 1 << 50}},
		{"stats record", stats.encode(nil), func(b []byte) (any, []byte, error) {
			st, err := decodeStats(b)
			return st, nil, err
		}, stats},
	} {
		got, rest, err := shape.decode(shape.enc)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, shape.want) {
			t.Errorf("%s: decoded %v (rest %d, err %v), want %v", shape.name, got, len(rest), err, shape.want)
		}
		for n := 0; n < len(shape.enc); n++ {
			if _, _, err := shape.decode(shape.enc[:n]); !errors.Is(err, errTruncated) {
				t.Errorf("%s: %d of %d bytes decode to err %v, want errTruncated", shape.name, n, len(shape.enc), err)
			}
		}
	}
}

// TestHostileExtents: a request naming bytes no stripe has is refused
// with a typed error — by the one extent check for what overflows an
// offset, locally or once mapped to the global file, and by the backend
// for what it cannot hold — on every op that carries an extent, staged
// or not, and stages nothing.  The first case is ROADMAP item 7's panic.
func TestHostileExtents(t *testing.T) {
	jb := storage.NewMem()
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64, Count: 2}, Journal: NewJournal(jb)})
	if err != nil {
		t.Fatal(err)
	}
	st := localConn(srv)
	const beyond = math.MaxInt64/2 - 64 // the last local offset whose global image fits
	for _, tc := range []struct {
		name string
		op   int
		body []byte
		bad  bool // refused by the protocol (errBadRequest), not by the backend
	}{
		{"write no allocation can hold", opWrite, []byte("\xf4\xf4\xf4\xf4\xf4\xf9\x80\x15"), false},
		{"write ending past MaxInt64", opWrite, append(vs(math.MaxInt64-1), "ab"...), true},
		{"write whose global end overflows", opWrite, append(vs(beyond), "ab"...), true},
		{"list entry ending past MaxInt64", opWritev, append(vs(1, math.MaxInt64-1, 2), "ab"...), true},
		{"list entry of negative length", opWritev, vs(1, 8, -1), true},
		{"read ending past MaxInt64", opRead, vs(math.MaxInt64, 1), true},
		{"read list entry past the offset space", opReadv, vs(1, beyond, 2), true},
		{"truncate past the offset space", opTruncate, vs(1 << 62), true},
		{"truncate no allocation can hold", opTruncate, vs(1 << 50), false},
	} {
		ops := []int{tc.op}
		if s := stagedOp(tc.op); s != tc.op && tc.bad {
			ops = append(ops, s) // what the backend refuses, it refuses at commit
		}
		for _, op := range ops {
			body := tc.body
			if op != tc.op {
				body = append(putEpoch(nil, 4), body...)
			}
			_, err := st.dispatch(op, body)
			if err == nil || errors.Is(err, errBadRequest) != tc.bad || (!tc.bad && !storage.IsPermanent(err)) {
				t.Errorf("%s (%s): err = %v", tc.name, opFor(op).name, err)
			}
		}
	}
	// A list whose lengths sum past MaxInt64 (one stripe, so each alone is
	// an extent the stripe could have) must not wrap into a total a frame
	// could carry.
	one := bounds{maxFrame: 1 << 20, maxLocal: math.MaxInt64}
	if _, _, _, err := one.getList(vs(2, 0, 5, 0, math.MaxInt64-2), nil); !errors.Is(err, errBadRequest) {
		t.Errorf("list summing past MaxInt64: err = %v", err)
	}
	if len(srv.staged) != 0 || jb.Size() != 0 {
		t.Errorf("refused requests staged %d epochs and journaled %d bytes", len(srv.staged), jb.Size())
	}
}
