package fotf

// Fused copies: both sides of a copy described by a datatype.
//
// CopyRange moves data between one typed buffer and a contiguous one, so
// an access whose memory layout and file layout are both non-contiguous
// pays it twice — pack the memtype into a staging buffer, then scatter
// the staging buffer by the filetype — and touches every byte twice.
// When neither buffer leaves the process the staging buffer carries no
// information: data byte i of the source type goes where data byte i of
// the destination type lives.  CopyFused walks the two compiled group
// arrays in lockstep and moves each byte once.
//
// The lockstep rule: at every step each side stands somewhere inside a
// run, and the step moves as many bytes as both runs still hold.  A step
// per run would waste what regular types offer, so two shapes of it are
// batched into one strided-to-strided kernel call (kernRuns):
//
//   - both sides at a run start with equal run length: min(runs left in
//     either group) whole runs;
//   - one side at a run start while the other side's run still holds two
//     or more of its whole runs: that stretch of the long run is a group
//     of short runs at a stride of their own length.  When the long side
//     stands at a run start too and its runs hold a whole number of the
//     short ones, the step goes on over as many long runs as both groups
//     allow (batch).
//
// Where the run ends do not line up the step is one copy of the common
// remainder (pieces), which soon brings both sides to a run start again —
// except between two groups of short runs that are out of step for good,
// whose remainders are shorter still and of ever-changing length: those
// go a few kilobytes at a time through a buffer on the stack, gathered
// by one group's runs and scattered by the other's (shortTrains),
// which touches the bytes twice but in L1 and in predictable loops.  As
// in execGroup, the kernel only ever sees whole runs: the batched shapes
// require a run start on the side whose runs it moves and count whole
// runs only, and the stack stretch is execGroup itself, so a range that
// begins or ends mid-run, or two run lengths that interleave, never put
// a partial run through the kernel, and nothing outside the two
// described ranges is read or written.

// shortRun bounds the run lengths for which two out-of-step groups are
// moved through the stack (shortTrains): below it the per-piece cost of
// the lockstep exceeds that of touching the bytes a second time in L1;
// measured crossover, pieces of 30 to 60 bytes.
const shortRun = 64

// fusedSide is one side's position in its program, kept as what a step
// needs: where the current run starts, the bytes left in it and the runs
// left in its group (the current one included).
type fusedSide struct {
	p     *Program
	g     *progGroup
	org   int64 // buffer index of the current instance's offset 0
	gi    int
	start int64 // buffer index of the current run's first byte
	rem   int64 // bytes left in the current run; g.blocklen at a run start
	left  int64 // runs left in g
}

// seek positions the side at data offset d of the tiled type, whose
// buffer offset o lives at index o-bias.
func (s *fusedSide) seek(p *Program, d, bias int64) {
	k := d / p.size
	lo := d - k*p.size
	s.p, s.org, s.gi = p, k*p.ext-bias, p.findGroup(lo)
	g := &p.groups[s.gi]
	lo -= p.cum[s.gi]
	i := lo / g.blocklen
	s.g, s.start, s.rem, s.left = g, s.org+g.base+i*g.stride, (i+1)*g.blocklen-lo, g.count-i
}

// off is the buffer index of the current byte.
func (s *fusedSide) off() int64 { return s.start + s.g.blocklen - s.rem }

// skipRuns steps over m whole runs from a run start (m <= left),
// entering the next group — the first group of the next instance after
// the last — when this one is exhausted.
func (s *fusedSide) skipRuns(m int64) {
	if s.left -= m; s.left > 0 {
		s.start += m * s.g.stride
		return
	}
	if s.gi++; s.gi == len(s.p.groups) {
		s.gi = 0
		s.org += s.p.ext
	}
	g := &s.p.groups[s.gi]
	s.g, s.start, s.rem, s.left = g, s.org+g.base, g.blocklen, g.count
}

// nextRun leaves the current run, wherever in it the side stands, for
// the start of the next one.
func (s *fusedSide) nextRun() {
	s.rem = s.g.blocklen
	s.skipRuns(1)
}

// groupPos returns the buffer index of run 0 of the current group, the
// group-local data offset of the current byte, and the data bytes from
// there to the end of the group.
func (s *fusedSide) groupPos() (gbase, glo, avail int64) {
	done := s.g.count - s.left // whole runs behind the current one
	return s.start - done*s.g.stride, (done+1)*s.g.blocklen - s.rem, s.left*s.g.blocklen - s.g.blocklen + s.rem
}

// skipBytes steps over b data bytes that end within the current group
// or exactly at its end.
func (s *fusedSide) skipBytes(b int64) {
	g := s.g
	_, glo, avail := s.groupPos()
	if b == avail {
		s.rem = g.blocklen
		s.skipRuns(s.left)
		return
	}
	glo += b
	i := glo / g.blocklen
	s.start += (i - (g.count - s.left)) * g.stride
	s.rem, s.left = (i+1)*g.blocklen-glo, g.count-i
}

// batch sizes the step in which short — at a run start, with more runs
// to follow in its group — moves whole runs against the rest of long's
// current run, which holds at least two of them: q runs per stretch, over
// stretches long runs, wrap bytes from the end of one stretch to the start
// of the next.  More than one stretch needs long at a run start, a run
// length that is a whole number of short's, and two whole long runs within
// both groups and n.
func (short *fusedSide) batch(long *fusedSide, n int64) (q, stretches, wrap int64) {
	u, l := short.g.blocklen, long.g.blocklen
	if q = l / u; long.rem == l && q*u == l && long.left > 1 && short.left >= 2*q && n >= 2*l {
		return q, min(long.left, short.left/q, n/l), long.g.stride - l
	}
	return min(short.left, min(long.rem, n)/u), 1, 0
}

// outOfStep reports whether d and s, which no batch fits, are two trains
// of short runs whose pieces are not worth cutting: both in groups of
// several runs of at most shortRun bytes, and either in step right now —
// then the run lengths themselves do not fit — or never again, which is
// when the two run remainders differ by no multiple of the greatest
// common divisor of the run lengths.  (Otherwise a few pieces bring both
// sides to a run start, where a batch may fit.)
func outOfStep(d, s *fusedSide) bool {
	a, b := d.g.blocklen, s.g.blocklen
	if d.left < 2 || s.left < 2 || a > shortRun || b > shortRun {
		return false
	}
	if d.rem == a && s.rem == b {
		return true
	}
	for b != 0 {
		a, b = b, a%b
	}
	return (d.rem-s.rem)%a != 0
}

// shortTrains moves up to n bytes, as many as both current groups still
// hold and the stack buffer takes, from s's group to d's through that
// buffer: one execGroup each way, so partial first and last runs take its
// byte path.  It returns the bytes moved.
func shortTrains(dst []byte, d *fusedSide, src []byte, s *fusedSide, n int64) int64 {
	var stage [4096]byte
	sbase, sglo, savail := s.groupPos()
	dbase, dglo, davail := d.groupPos()
	n = min(n, savail, davail, int64(len(stage)))
	execGroup(stage[:n], src, sbase, s.g, sglo, sglo+n, true)
	execGroup(stage[:n], dst, dbase, d.g, dglo, dglo+n, false)
	s.skipBytes(n)
	d.skipBytes(n)
	return n
}

// pieces is the lockstep where nothing batches: it copies (or, rec set,
// records) the common remainder of the two current runs, steps whichever
// run that ends, and goes on until n is spent or a batch may have become
// possible — both sides at a run start, or one at the start of runs of
// which the other's run still holds two.  It returns what is left of n.
// The positions live in locals between run ends, and there is one branch
// on which run ends first, not one per side: each alone is a coin toss,
// and the two are anti-correlated.
func pieces(dst []byte, d *fusedSide, src []byte, s *fusedSide, n int64, rec *planRecorder) int64 {
	do, drem, so, srem := d.off(), d.rem, s.off(), s.rem
	for {
		c := min(drem, srem, n)
		if rec == nil {
			copy(dst[do:do+c], src[so:so+c])
		} else {
			rec.piece(do, so, c)
		}
		if c == n {
			return 0
		}
		n -= c
		switch {
		case drem < srem:
			so, srem = so+c, srem-c
			d.nextRun()
			do, drem = d.start, d.rem
			if d.left > 1 && srem >= 2*drem {
				s.rem = srem
				return n
			}
		case srem < drem:
			do, drem = do+c, drem-c
			s.nextRun()
			so, srem = s.start, s.rem
			if s.left > 1 && drem >= 2*srem {
				d.rem = drem
				return n
			}
		default:
			d.nextRun()
			s.nextRun()
			return n
		}
	}
}

// CopyFused moves n data bytes from the typed buffer src to the typed
// buffer dst without staging them: for 0 <= i < n, data byte sd0+i of the
// tiled type of sp lands where data byte dd0+i of the tiled type of dp
// lives.  Each side is addressed as in CopyRange — the byte at buffer
// offset o of the type is src[o-sbias], respectively dst[o-dbias].  The
// result is that of packing [sd0, sd0+n) with sp.CopyRange into a
// scratch buffer and unpacking it over [dd0, dd0+n) with dp.CopyRange,
// provided the two byte ranges do not overlap in memory.  A caller that
// moves the same range again and again records it once instead
// (PlanFused).
func CopyFused(dst []byte, dp *Program, dd0, dbias int64, src []byte, sp *Program, sd0, sbias int64, n int64) {
	lockstep(dst, dp, dd0, dbias, src, sp, sd0, sbias, n, nil)
}

// lockstep is CopyFused's walk of the two programs.  With rec nil it
// moves the bytes; with rec it moves none — dst and src are not touched
// — and hands each step to rec instead, as a piece or a kernRuns call.
// A recording takes pieces where a copy would take shortTrains: a step
// through the stack stages bytes, and a plan holds only where bytes go.
func lockstep(dst []byte, dp *Program, dd0, dbias int64, src []byte, sp *Program, sd0, sbias int64, n int64, rec *planRecorder) {
	if n <= 0 {
		return
	}
	var d, s fusedSide
	d.seek(dp, dd0, dbias)
	s.seek(sp, sd0, sbias)
	for n > 0 {
		dbl, sbl := d.g.blocklen, s.g.blocklen
		switch {
		case d.rem == dbl && s.rem == sbl && dbl == sbl && n >= dbl:
			m := min(d.left, s.left)
			if m*dbl > n {
				m = n / dbl
			}
			rec.kernRuns(dst, d.start, d.g.stride, 0, src, s.start, s.g.stride, 0, dbl, m, 1)
			d.skipRuns(m)
			s.skipRuns(m)
			n -= m * dbl
		case d.rem == dbl && d.left > 1 && min(s.rem, n) >= 2*dbl:
			// The rest of the source run holds whole destination runs.
			q, k, wrap := d.batch(&s, n)
			rec.kernRuns(dst, d.start, d.g.stride, 0, src, s.off(), dbl, wrap, dbl, q, k)
			d.skipRuns(q * k)
			s.skipBytes(q * k * dbl)
			n -= q * k * dbl
		case s.rem == sbl && s.left > 1 && min(d.rem, n) >= 2*sbl:
			// The rest of the destination run holds whole source runs.
			q, k, wrap := s.batch(&d, n)
			rec.kernRuns(dst, d.off(), sbl, wrap, src, s.start, s.g.stride, 0, sbl, q, k)
			s.skipRuns(q * k)
			d.skipBytes(q * k * sbl)
			n -= q * k * sbl
		case rec == nil && outOfStep(&d, &s):
			n -= shortTrains(dst, &d, src, &s, n)
		default:
			n = pieces(dst, &d, src, &s, n, rec)
		}
	}
}

// RunsFused enumerates what CopyFused with the same arguments would move,
// without moving it: for each stretch of the n data bytes that is
// contiguous on both sides, in data order, emit(do, so, ln) names the
// ln bytes at index do of the destination buffer and at index so of the
// source buffer.  A stretch ends where a run ends on either side, so
// there are at most as many as the two ranges hold runs together.  It is
// the lockstep of CopyFused with the copy taken out — what turns a
// memtype-described user buffer and a fileview into an offset list whose
// pieces point into the user buffer.
func RunsFused(dp *Program, dd0, dbias int64, sp *Program, sd0, sbias, n int64, emit func(do, so, ln int64)) {
	if n <= 0 {
		return
	}
	var d, s fusedSide
	d.seek(dp, dd0, dbias)
	s.seek(sp, sd0, sbias)
	for {
		c := min(d.rem, s.rem, n)
		emit(d.off(), s.off(), c)
		if n -= c; n == 0 {
			return
		}
		d.advance(c)
		s.advance(c)
	}
}

// advance steps over c bytes of the current run, c <= rem.
func (s *fusedSide) advance(c int64) {
	if c == s.rem {
		s.nextRun()
	} else {
		s.rem -= c
	}
}
