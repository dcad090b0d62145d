package storage

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// FuzzChaosBackend drives a Resilient-wrapped Chaos backend with
// arbitrary seeds, offsets, and payloads, checking the invariant that
// makes retrying sound: any operation that reports success left the
// base store exactly as a fault-free operation would have (torn writes
// and short reads may only ever surface as errors, never as silent
// corruption).
func FuzzChaosBackend(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte("hello"))
	f.Add(int64(42), uint16(512), bytes.Repeat([]byte{0xEE}, 300))
	f.Add(int64(-7), uint16(65535), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, off16 uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		off := int64(off16) % 4096
		base := NewMem()
		c := NewChaos(seed, base, ChaosConfig{
			TransientRead:  0.3,
			TransientWrite: 0.3,
			ShortRead:      0.2,
			TornWrite:      0.2,
			LatencySpike:   0.1,
		})
		c.sleep = func(time.Duration) {}
		r := NewResilient(c, ResilientConfig{MaxRetries: 64, Seed: seed})
		r.sleep = func(time.Duration) {}

		n, err := r.WriteAt(data, off)
		if err == nil {
			if n != len(data) {
				t.Fatalf("successful write reported %d of %d bytes", n, len(data))
			}
			got := memBytes(base)
			if int64(len(got)) < off+int64(len(data)) {
				t.Fatalf("base size %d after successful write ending at %d", len(got), off+int64(len(data)))
			}
			if !bytes.Equal(got[off:off+int64(len(data))], data) {
				t.Fatal("successful write did not persist its exact payload")
			}
		}

		p := make([]byte, len(data))
		n, err = r.ReadAt(p, off)
		if err == nil || err == io.EOF {
			want := memBytes(base)
			for i := 0; i < n; i++ {
				if p[i] != want[off+int64(i)] {
					t.Fatalf("successful read byte %d = %#x, base has %#x", i, p[i], want[off+int64(i)])
				}
			}
		}
	})
}
