package mpi

import "encoding/binary"

// Collective operations.  All of them must be called by every rank of the
// world.  They are built on point-to-point messages with reserved tags,
// and every receive names its source: a collective never matches a
// wildcard, so a frame that a slow link delivers late can only be taken
// by the receive it was sent for.  Pairwise FIFO ordering makes
// consecutive collectives on the same world well-ordered without
// sequence numbers.
//
// Allgather, and so AllgatherInt64, AllgatherInt64s and AllreduceInt64,
// is a direct exchange (Thakur, Rabenseifner and Gropp, "Optimization of
// Collective Communication Operations in MPICH"): every rank sends its
// part to every peer and receives each peer's part from that peer, one
// round of P(P-1) messages.  A rank that has returned from one has
// received a message from every peer, sent after everything that peer
// sent it before.  Bcast sends from the root to each rank.  A wired
// world's Barrier is a dissemination barrier (msgBarrier).

const (
	tagBcast = collTagBase + iota
	tagAlltoall
	tagBarrier  // wired-world dissemination barrier
	tagFinalize // distributed shutdown barrier before links drop
)

// Bcast distributes root's data to all ranks and returns it (the root
// returns data unchanged).
func (p *Proc) Bcast(root int, data []byte) []byte {
	if p.rank == root {
		for r := 0; r < p.w.size; r++ {
			if r != root {
				p.Send(r, tagBcast, data)
			}
		}
		return data
	}
	got, _, _ := p.Recv(root, tagBcast)
	return got
}

// Allgather collects every rank's data at every rank, indexed by rank
// (this rank's own entry aliases data): an Alltoall of one part.
func (p *Proc) Allgather(data []byte) [][]byte {
	parts := make([][]byte, p.w.size)
	for r := range parts {
		parts[r] = data
	}
	return p.Alltoall(parts)
}

// Alltoall delivers parts[i] to rank i and returns the parts received,
// indexed by source rank, each received from its source by name.
// parts[p.Rank()] is passed through directly.
func (p *Proc) Alltoall(parts [][]byte) [][]byte {
	if len(parts) != p.w.size {
		panic("mpi: Alltoall needs one part per rank")
	}
	for r := 0; r < p.w.size; r++ {
		if r != p.rank {
			p.Send(r, tagAlltoall, parts[r])
		}
	}
	out := make([][]byte, p.w.size)
	out[p.rank] = parts[p.rank]
	for r := 0; r < p.w.size; r++ {
		if r != p.rank {
			out[r], _, _ = p.Recv(r, tagAlltoall)
		}
	}
	return out
}

// Op is a reduction operator for the int64 reductions.
type Op uint8

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (op Op) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown op")
}

// AllreduceInt64 reduces v across all ranks with op and returns the
// result on every rank.
func (p *Proc) AllreduceInt64(v int64, op Op) int64 {
	res := p.AllgatherInt64(v)
	acc := res[0]
	for _, x := range res[1:] {
		acc = op.apply(acc, x)
	}
	return acc
}

// AllgatherInt64 collects one int64 from every rank, indexed by rank.
func (p *Proc) AllgatherInt64(v int64) []int64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	parts := p.Allgather(buf[:])
	out := make([]int64, p.w.size)
	for i, part := range parts {
		out[i] = int64(binary.LittleEndian.Uint64(part))
	}
	return out
}

// AllgatherInt64s collects a fixed-length vector of int64 from every
// rank; all ranks must pass the same length.
func (p *Proc) AllgatherInt64s(vs []int64) [][]int64 {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	parts := p.Allgather(buf)
	out := make([][]int64, p.w.size)
	for i, part := range parts {
		vec := make([]int64, len(part)/8)
		for j := range vec {
			vec[j] = int64(binary.LittleEndian.Uint64(part[j*8:]))
		}
		out[i] = vec
	}
	return out
}
