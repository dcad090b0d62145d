package core_test

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/noncontig"
	"repro/internal/storage"
)

// Four processes partition one file with interleaved non-contiguous
// fileviews, write it with a single collective call each, and read their
// parts back: the minimal end-to-end tour of the MPI-IO API.
func Example() {
	const (
		P          = 4
		blockCount = 8
		blockLen   = 16 // bytes per block
	)

	backend := storage.NewMem()
	shared := core.NewShared(backend)

	_, err := mpi.Run(P, func(p *mpi.Proc) {
		// Open the shared file with the listless (flattening-on-the-fly)
		// engine, the paper's technique.
		f, err := core.Open(p, shared, core.Options{Engine: core.Listless})
		if err != nil {
			panic(err)
		}
		defer f.Close()

		// Each rank sees every P-th block of the file: rank r's view is
		// blocks r, r+P, r+2P, ... (the paper's Figure-4 datatype).
		ft, err := noncontig.Filetype(p.Rank(), P, blockCount, blockLen)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}

		// Through the view the file looks contiguous: write our blocks
		// with one collective call.
		mine := bytes.Repeat([]byte{byte('A' + p.Rank())}, blockCount*blockLen)
		if _, err := f.WriteAtAll(0, int64(len(mine)), datatype.Byte, mine); err != nil {
			panic(err)
		}

		// Read it back through the same view and check.
		got := make([]byte, len(mine))
		if _, err := f.ReadAtAll(0, int64(len(got)), datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, mine) {
			panic(fmt.Sprintf("rank %d: read-back mismatch", p.Rank()))
		}
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// The physical file interleaves the ranks' blocks: AABB...CCDD...
	raw := backend.Bytes()
	fmt.Printf("file is %d bytes; first two interleaved stripes:\n", len(raw))
	for s := 0; s < 2; s++ {
		fmt.Printf("  stripe %d: %s\n", s, raw[s*P*blockLen:(s+1)*P*blockLen])
	}
	// Output:
	// file is 512 bytes; first two interleaved stripes:
	//   stripe 0: AAAAAAAAAAAAAAAABBBBBBBBBBBBBBBBCCCCCCCCCCCCCCCCDDDDDDDDDDDDDDDD
	//   stripe 1: AAAAAAAAAAAAAAAABBBBBBBBBBBBBBBBCCCCCCCCCCCCCCCCDDDDDDDDDDDDDDDD
}
