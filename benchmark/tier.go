package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"repro/internal/ioserver"
	"repro/internal/storage"
)

// The I/O-server tier of the tier workloads: two in-process servers on
// 127.0.0.1, each over a file-backed stripe and a file-backed journal
// opened through RecoverJournal, mounted as one striped backend.
const (
	tierServers = 2
	stripeUnit  = 64 << 10
)

type tier struct {
	agg     *ioserver.Striped
	servers []*ioserver.Server
	files   []*storage.File
	// inst wraps each server's stripe file in the traced pass (nil
	// otherwise): the storage layer's call and byte counts.
	inst []*storage.Instrumented
	dir  string
}

// startTier starts the tier with its files in a fresh directory under
// tmp, which exists.
func startTier(tmp string, instrument bool) (*tier, error) {
	dir, err := os.MkdirTemp(tmp, "tier-")
	if err != nil {
		return nil, err
	}
	t := &tier{dir: dir}
	geom := storage.StripeGeom{Unit: stripeUnit, Count: tierServers}
	addrs := make([]string, tierServers)
	for i := 0; i < tierServers; i++ {
		stripe, err := t.open(fmt.Sprintf("stripe%d", i))
		if err != nil {
			t.stop()
			return nil, err
		}
		jb, err := t.open(fmt.Sprintf("journal%d", i))
		if err != nil {
			t.stop()
			return nil, err
		}
		var backend storage.Backend = stripe
		if instrument {
			in := storage.NewInstrumented(stripe)
			t.inst = append(t.inst, in)
			backend = in
		}
		journal, info, err := ioserver.RecoverJournal(jb, backend)
		if err != nil {
			t.stop()
			return nil, err
		}
		srv, err := ioserver.New(ioserver.Config{Backend: backend, Geom: geom, Index: i, Journal: journal, Recovery: info})
		if err != nil {
			t.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.stop()
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		t.servers = append(t.servers, srv)
		go srv.Serve(ln) // Close waits for Serve to return
	}
	t.agg, err = ioserver.NewStriped(stripeUnit, addrs, ioserver.ClientOptions{})
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *tier) open(name string) (*storage.File, error) {
	f, err := storage.OpenFile(filepath.Join(t.dir, name))
	if err != nil {
		return nil, err
	}
	t.files = append(t.files, f)
	return f, nil
}

// stop closes clients, servers and files and removes the directory.
// Errors are not reported: the data has been verified by then and the
// files are about to be deleted.
func (t *tier) stop() {
	if t.agg != nil {
		t.agg.Close()
	}
	for _, srv := range t.servers {
		srv.Close()
	}
	for _, f := range t.files {
		f.Close()
	}
	os.RemoveAll(t.dir)
}

// stats sums the servers' request counters, read in process so that the
// reading itself costs no request.
func (t *tier) stats() ioserver.ServerStats {
	var sum ioserver.ServerStats
	for _, srv := range t.servers {
		st := srv.Stats()
		sum.Requests += st.Requests
		sum.ViewRegistrations += st.ViewRegistrations
		sum.ViewCacheHits += st.ViewCacheHits
		sum.StaleHandles += st.StaleHandles
		sum.StagedWrites += st.StagedWrites
		sum.EpochsCommitted += st.EpochsCommitted
		sum.JournalFsyncs += st.JournalFsyncs
	}
	return sum
}
