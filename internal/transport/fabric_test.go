package transport

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// fabrics brings up a two-rank world of each fabric; the returned
// function closes both.
func fabrics(t *testing.T) (map[string][]Transport, func()) {
	t.Helper()
	tcp := tcpWorld(t, 2)
	loop := NewLoopback(2)
	return map[string][]Transport{"loopback": loop, "tcp": tcp}, func() {
		closeWorld(loop)
		closeWorld(tcp)
	}
}

// TestFabricsRefuseTheSameSends: a program that passes on one fabric
// cannot fail on the other for what it sends.  Every send entry point of
// both refuses a rank outside the world and a tag of the transport's
// reserved (negative) space, and delivers nothing for it.
func TestFabricsRefuseTheSameSends(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	fabs, stop := fabrics(t)
	defer stop()
	sends := []struct {
		name string
		send func(ep Transport, dst, tag int) error
	}{
		{"Send", func(ep Transport, dst, tag int) error { return ep.Send(dst, tag, []byte("x")) }},
		{"SendNoCopy", func(ep Transport, dst, tag int) error { return ep.SendNoCopy(dst, tag, []byte("x")) }},
		{"SendRef", func(ep Transport, dst, tag int) error { return ep.SendRef(dst, tag, new(int)) }},
	}
	refused := []struct {
		name     string
		dst, tag int
		want     string
	}{
		{"rank past the world", 2, 1, "invalid rank"},
		{"negative rank", -1, 1, "invalid rank"},
		{"reserved tag", 1, tagHello, "reserved"},
		{"reserved tag to self", 0, -7, "reserved"},
	}
	for name, eps := range fabs {
		for _, s := range sends {
			for _, c := range refused {
				if err := s.send(eps[0], c.dst, c.tag); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s %s, %s: err = %v, want %q", name, s.name, c.name, err, c.want)
				}
			}
		}
		// Nothing refused was delivered: the first message either rank
		// finds is the one sent after the refusals.
		for dst := range eps {
			if err := eps[0].Send(dst, 3, []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if m, err := eps[dst].Recv(AnySource, AnyTag); err != nil || m.Tag != 3 || string(m.Data) != "ok" {
				t.Errorf("%s: rank %d received %+v, %v after the refused sends", name, dst, m, err)
			}
		}
	}
}

// TestSendRefStaysInProcess: a reference reaches its receiver as the
// sender's value itself in-process, to another rank and to itself, and a
// drain removes it with no payload bytes; the wired fabric refuses it to
// every rank, itself included, and delivers nothing for it.
func TestSendRefStaysInProcess(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	fabs, stop := fabrics(t)
	defer stop()
	ref := &struct{ buf []byte }{buf: []byte("in place")}
	for dst, ep := range fabs["loopback"] {
		if err := fabs["loopback"][0].SendRef(dst, 4, ref); err != nil {
			t.Fatal(err)
		}
		if m, err := ep.Recv(0, 4); err != nil || m.Ref != ref || m.Data != nil {
			t.Errorf("loopback to %d: received %+v, %v; want the reference itself", dst, m, err)
		}
	}
	if err := fabs["loopback"][0].SendRef(1, 9, ref); err != nil {
		t.Fatal(err)
	}
	if n, bytes := fabs["loopback"][1].DrainTag(9, nil); n != 1 || bytes != 0 {
		t.Errorf("loopback: drained %d messages of %d bytes, want the one reference and no bytes", n, bytes)
	}
	tcp := fabs["tcp"]
	for dst := range tcp {
		if err := tcp[0].SendRef(dst, 4, ref); err == nil || !strings.Contains(err.Error(), "cannot cross a wire") {
			t.Errorf("tcp to %d: SendRef err = %v, want a refusal", dst, err)
		}
		if err := tcp[0].Send(dst, 3, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if m, err := tcp[dst].Recv(AnySource, AnyTag); err != nil || m.Tag != 3 {
			t.Errorf("tcp: rank %d received %+v, %v after the refused reference", dst, m, err)
		}
	}
}
