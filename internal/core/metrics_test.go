package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// TestStatsSubCoversEveryField sets every field of Stats to a distinct
// value and checks Sub against the zero snapshot field by field: a field
// added to the struct and forgotten in Sub reads 0 here.
func TestStatsSubCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s: Sub and this test know only int64 counters", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(1000 + i))
	}
	d := reflect.ValueOf(s.Sub(Stats{}))
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), int64(1000+i); got != want {
			t.Errorf("Sub drops Stats.%s: got %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
	if got := s.Sub(s); got != (Stats{}) {
		t.Errorf("s.Sub(s) = %+v, want zero", got)
	}
}

// registryCounters reads every core_* counter of a registry by name.
func registryCounters(r *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range r.Snapshot("test").Metrics {
		if m.Kind == obs.KindCounter {
			out[m.Name] = m.Value
		}
	}
	return out
}

// TestRegistryEqualsStats: the scrape plane is a function of Stats.  P
// goroutine ranks sharing one registry run collective and independent
// sieving traffic on the epoch tier, one collective of which faults and
// abandons its epoch; afterwards every core_* counter equals its table
// expression summed over the ranks' Stats — independent bytes, AP-side
// copy and exchange time, and aborts included.
func TestRegistryEqualsStats(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, blockcount, blocklen = 2, 256, 8
	d := int64(blockcount * blocklen)
	tier, stop := ioServerTier(t, 4096, 2)
	defer stop()
	fb := storage.NewFaulty(tier)
	sh := NewShared(fb)
	reg := obs.NewRegistry()
	stats := make([]Stats, P)
	_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{CollBufSize: 1024, SieveBufSize: 512, Metrics: reg})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		buf := pattern(p.Rank(), d)
		must := func(_ int64, err error) {
			if err != nil {
				panic(err)
			}
		}
		must(f.WriteAtAll(0, d, datatype.Byte, buf))
		must(f.ReadAtAll(0, d, datatype.Byte, buf))
		must(f.WriteAt(0, d, datatype.Byte, buf))
		must(f.ReadAt(0, d, datatype.Byte, buf))
		p.Barrier()
		if p.Rank() == 0 {
			fb.FailWrites(1)
		}
		p.Barrier()
		if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err == nil {
			panic("the faulted collective succeeded")
		}
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatal(err)
	}

	total := func(value func(*Stats) int64) (n int64) {
		for i := range stats {
			n += value(&stats[i])
		}
		return n
	}
	got := registryCounters(reg)
	for _, name := range []string{"core_exchange_ns_total", "core_copy_ns_total", "core_storage_ns_total", "core_windows_total"} {
		if got[name] <= 0 {
			t.Errorf("%s = %d after collective and sieving traffic", name, got[name])
		}
	}
	for _, c := range coreCounters {
		if want := total(c.value); got[c.name] != want {
			t.Errorf("%s = %d, the ranks' Stats say %d", c.name, got[c.name], want)
		}
	}
	for name, want := range map[string]int64{
		"core_collective_writes_total": P, "core_collective_reads_total": P,
		"core_epochs_committed_total": P, "core_epoch_aborts_total": P,
		"core_written_bytes_total": 2 * P * d, "core_read_bytes_total": 2 * P * d,
	} {
		if got[name] != want {
			t.Errorf("the scenario did not run as meant: %s = %d, want %d", name, got[name], want)
		}
	}
}

// TestRegistryMonotoneUnderScrape: a scrape racing the ranks — their
// Opens, which register, and their collectives, which publish — sees
// every counter only grow (run under -race).
func TestRegistryMonotoneUnderScrape(t *testing.T) {
	const P, blockcount, blocklen, rounds = 2, 512, 8, 20
	d := int64(blockcount * blocklen)
	sh := NewShared(storage.NewMem())
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := registryCounters(reg)
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := registryCounters(reg)
			for name, v := range cur {
				if v < last[name] {
					t.Errorf("%s went from %d to %d", name, last[name], v)
				}
			}
			last = cur
		}
	}()
	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{CollBufSize: 512, Metrics: reg})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		buf := pattern(p.Rank(), d)
		for i := 0; i < rounds; i++ {
			if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
		}
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := registryCounters(reg)["core_collective_writes_total"]; got != P*rounds {
		t.Errorf("core_collective_writes_total = %d, want %d", got, P*rounds)
	}
}

// TestPublishZeroAlloc: bringing a live registry up to Stats allocates
// nothing, whether or not anything changed.
func TestPublishZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	f := &File{om: newFileMetrics(reg)}
	allocs := testing.AllocsPerRun(100, func() {
		f.Stats.SieveWrites++
		f.Stats.CopyNs += 17
		f.publish()
		f.publish()
	})
	if allocs != 0 {
		t.Errorf("publish allocates %.1f times per call pair", allocs)
	}
	if got := registryCounters(reg); got["core_sieve_writes_total"] != f.Stats.SieveWrites || got["core_copy_ns_total"] != f.Stats.CopyNs {
		t.Errorf("registry %v after Stats %+v", got, f.Stats)
	}
}
