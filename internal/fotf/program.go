// Compiled copy programs: the one-time-compile / many-execute
// counterpart to the recursive Runs walk.
//
// Runs already enumerates a datatype's contiguous runs as groups of
// evenly spaced runs, but it pays tree recursion, per-node division
// chains, and one closure dispatch per group on every window it is
// asked for.  A Program does that work once: Compile materializes the
// run structure of one (datatype, extent) instance into a flat array of
// {base, blocklen, stride, count} groups — coalescing runs that the
// tree shape hides from the walk (abutting runs merge, arithmetic
// progressions of equal-length runs merge across block and member
// boundaries).  Execution over a data window [d0, d1) is then a
// prefix-sum search plus tight batch loops with no tree in sight, and a
// Cursor resumes sequential windows in O(1).
//
// Programs are semantically equivalent to the walk: byte-identical
// pack/unpack for every window, including windows that split groups or
// elements (a split never sends a partial element through the copy
// kernel — partial head/tail runs always take the byte path).  The
// differential layer (program_test.go, FuzzProgramVsWalk) pins this.
package fotf

import (
	"cmp"
	"slices"

	"repro/internal/datatype"
)

// Compile limits.  maxProgramBlocks bounds the walk done at compile
// time (Blocks is the ol-list length, an upper bound on emitted
// groups); maxProgramGroups bounds the memory a compiled program may
// hold.  Types beyond either limit decline compilation — Compile
// returns nil and callers fall back to the walk — so a hostile tree can
// neither over-allocate nor stall the compiler.
const (
	maxProgramBlocks = 1 << 22
	maxProgramGroups = 1 << 16
)

// progGroup is one compiled group: count runs of blocklen bytes, run i
// at buffer offset base + i*stride relative to the instance origin.
// Groups cover the instance's data bytes gaplessly in type-map order,
// so the data offset of a group is the prefix sum of the group bytes
// before it (Program.cum).
type progGroup struct {
	base     int64
	blocklen int64
	stride   int64
	count    int64
}

// Program is the compiled run program of one datatype: the flat-array
// form of everything Runs can emit for a single instance, tiled at the
// type's extent exactly like the walk tiles it.
type Program struct {
	t      *datatype.Type
	size   int64 // data bytes per instance
	ext    int64 // tiling extent
	groups []progGroup
	cum    []int64 // cum[i] = data offset of group i; cum[len(groups)] = size
	runs   int64   // contiguous runs per instance: the sum of the group counts
	bad    bool    // compile overflowed maxProgramGroups

	// lo and hi bound the buffer offsets of an instance's data bytes, and
	// disjoint says that no two of them share an offset (see Disjoint).
	lo, hi   int64
	disjoint bool
}

// Compile builds the run program of t, or returns nil when t holds no
// data or is too large to compile profitably (the caller then uses the
// recursive walk).  The returned Program is immutable and safe for
// concurrent use; per-call-site state lives in Cursor.
func Compile(t *datatype.Type) *Program {
	if t == nil || t.Size() <= 0 || t.Blocks() > maxProgramBlocks {
		return nil
	}
	p := &Program{t: t, size: t.Size(), ext: t.Extent()}
	Runs(t, 0, p.size, p.add)
	if p.bad {
		return nil
	}
	p.cum = make([]int64, len(p.groups)+1)
	for i := range p.groups {
		g := &p.groups[i]
		p.cum[i+1] = p.cum[i] + g.blocklen*g.count
		p.runs += g.count
	}
	if p.cum[len(p.groups)] != p.size {
		// Defensive: the walk's emissions must tile the data range
		// exactly; anything else would corrupt window positioning.
		return nil
	}
	p.layout()
	return p
}

// layout sets lo, hi and disjoint from the groups: a group's runs are
// apart when its stride clears a run, and the groups are apart when the
// buffer spans they cover are, taken in ascending order.  Groups whose
// spans interleave count as overlapping, which only costs what Disjoint
// is asked for.
func (p *Program) layout() {
	spans := make([][2]int64, len(p.groups))
	p.disjoint = true
	for i, g := range p.groups {
		first, last := g.base, g.base+(g.count-1)*g.stride
		spans[i] = [2]int64{min(first, last), max(first, last) + g.blocklen}
		if g.count > 1 && max(g.stride, -g.stride) < g.blocklen {
			p.disjoint = false
		}
	}
	slices.SortFunc(spans, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	p.lo, p.hi = spans[0][0], spans[0][1]
	for _, s := range spans[1:] {
		if s[0] < p.hi {
			p.disjoint = false
		}
		p.hi = max(p.hi, s[1])
	}
}

// Disjoint reports whether n instances of the type, tiled at its extent,
// place no two data bytes at one buffer offset: what makes the result of
// unpacking into them independent of the order the bytes arrive in.  It
// is conservative — false means only "not shown".
func (p *Program) Disjoint(n int64) bool {
	return p.disjoint && (n <= 1 || p.hi-p.lo <= p.ext)
}

// Type returns the datatype the program was compiled from.
func (p *Program) Type() *datatype.Type { return p.t }

// add is the compile-time emit hook: it normalizes one walked group and
// coalesces it with the program tail.  Data offsets are implied by
// emission order (Runs covers [0, size) gaplessly in data order), so
// only buffer geometry needs checking.
//
// The groups are a function of the layout, not of the tree that walked
// it: they are what adding the type's maximal runs (its ol-list) one at a
// time makes, where a run that abuts the previous one merges with it and
// a run otherwise extends the tail's progression or pairs with a tail
// run of its own length.  A walked group is added as that many runs
// would be, in O(1): its first run abutting the tail's last run merges
// with it — the tail's last run is peeled off first — and its first run
// joining the tail's progression takes the rest with it only at the same
// stride.
func (p *Program) add(bufOff, _ /* dataOff */, runLen, stride, n int64) {
	if p.bad {
		return
	}
	// Runs that abut in the buffer are one contiguous run: data always
	// abuts within a group, so stride == runLen collapses the group.
	if n == 1 || stride == runLen {
		runLen, stride, n = runLen*n, 0, 1
	}
	if len(p.groups) > 0 {
		g := &p.groups[len(p.groups)-1]
		last := g.base + (g.count-1)*g.stride
		switch {
		case last+g.blocklen == bufOff:
			// One run of the layout that the tree splits (e.g. across a
			// block or struct member boundary): peel the tail's last
			// run, add the two as one, then the rest of this group.
			merged := g.blocklen + runLen
			if g.count--; g.count == 0 {
				p.groups = p.groups[:len(p.groups)-1]
			} else if g.count == 1 {
				g.stride = 0
			}
			p.add(last, 0, merged, 0, 1)
			if n > 1 {
				p.add(bufOff+stride, 0, runLen, stride, n-1)
			}
			return
		case g.blocklen == runLen && (g.count == 1 && bufOff > last+runLen || g.count > 1 && bufOff == last+g.stride):
			// The first run starts an arithmetic progression with the
			// tail's single run, or continues the tail's.
			if g.count == 1 {
				g.stride = bufOff - g.base
			}
			g.count++
			if n == 1 {
				return
			}
			if stride == g.stride {
				g.count += n - 1
				return
			}
			p.add(bufOff+stride, 0, runLen, stride, n-1)
			return
		}
	}
	if len(p.groups) >= maxProgramGroups {
		p.bad = true
		return
	}
	p.groups = append(p.groups, progGroup{base: bufOff, blocklen: runLen, stride: stride, count: n})
}

// Groups reports the number of compiled run groups — after coalescing,
// at most (and often far below) the type's Blocks().
func (p *Program) Groups() int {
	if p == nil {
		return 0
	}
	return len(p.groups)
}

// Group returns compiled group i, 0 <= i < Groups(): count runs of
// blocklen bytes, run k at buffer offset base + k*stride from the
// instance origin, in type-map order.  A single run has stride 0.
func (p *Program) Group(i int) (base, blocklen, stride, count int64) {
	g := &p.groups[i]
	return g.base, g.blocklen, g.stride, g.count
}

// findGroup returns the index of the group containing instance-local
// data offset d (0 <= d < size): the largest i with cum[i] <= d.
func (p *Program) findGroup(d int64) int {
	lo, hi := 0, len(p.groups)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if p.cum[mid] <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// CopyRange moves the data bytes [d0, d1) of the tiled type between the
// typed buffer b and the contiguous buffer c, with exactly the
// semantics of the package-level CopyRange: run at buffer offset o
// lands at b[o-bias], data byte d lands at c[d-d0], pack=true copies
// b→c.  Positioning costs one binary search; the copy itself is the
// compiled group array driven through the copy kernel.
func (p *Program) CopyRange(c, b []byte, d0, d1, bias int64, pack bool) {
	p.copyRange(c, b, d0, d1, bias, pack, nil)
}

func (p *Program) copyRange(c, b []byte, d0, d1, bias int64, pack bool, cur *Cursor) {
	if d1 <= d0 {
		return
	}
	size := p.size
	k0 := d0 / size
	k1 := (d1 - 1) / size
	lo0 := d0 - k0*size
	var gi int
	if cur != nil && cur.d == d0 && cur.k == k0 {
		// Resume: the saved index is at most one group past the one
		// containing lo0 (the previous window may have ended exactly on
		// its boundary), and never more than one behind.
		gi = cur.gi
		for gi > 0 && p.cum[gi] > lo0 {
			gi--
		}
		for p.cum[gi+1] <= lo0 {
			gi++
		}
	} else {
		gi = p.findGroup(lo0)
	}
	for k := k0; k <= k1; k++ {
		lo, hi := int64(0), size
		if k == k0 {
			lo = lo0
		}
		if k == k1 {
			hi = d1 - k*size
		}
		org := k*p.ext - bias
		coff := k*size - d0 // c index of this instance's data byte 0
		for ; gi < len(p.groups) && p.cum[gi] < hi; gi++ {
			g := &p.groups[gi]
			glo := lo - p.cum[gi]
			if glo < 0 {
				glo = 0
			}
			ghi := hi - p.cum[gi]
			if gb := g.blocklen * g.count; ghi > gb {
				ghi = gb
			}
			execGroup(c[coff+p.cum[gi]+glo:], b, org+g.base, g, glo, ghi, pack)
		}
		if k < k1 {
			gi = 0
		}
	}
	if cur != nil {
		cur.d = d1
		cur.k = d1 / size
		if cur.k != k1 {
			cur.gi = 0
		} else if gi < len(p.groups) {
			cur.gi = gi
		} else {
			cur.gi = len(p.groups) - 1
		}
	}
}

// execGroup copies the group-local data range [glo, ghi) of g, whose
// run 0 starts at b[gbase], with cg[0] holding data byte glo.  Runs
// split by the window boundary go through the byte path; only whole
// runs reach the copy kernel — a split mid-element must never execute
// as a (full-width) element.
func execGroup(cg, b []byte, gbase int64, g *progGroup, glo, ghi int64, pack bool) {
	bl := g.blocklen
	i0 := glo / bl
	i1 := (ghi - 1) / bl
	if i0 == i1 {
		o := gbase + i0*g.stride + (glo - i0*bl)
		n := ghi - glo
		if pack {
			copy(cg[:n], b[o:o+n])
		} else {
			copy(b[o:o+n], cg[:n])
		}
		return
	}
	var cpos int64
	if r := glo - i0*bl; r != 0 {
		o := gbase + i0*g.stride + r
		n := bl - r
		if pack {
			copy(cg[:n], b[o:o+n])
		} else {
			copy(b[o:o+n], cg[:n])
		}
		cpos = n
		i0++
	}
	iN := i1
	tail := ghi - i1*bl
	if tail != bl {
		iN = i1 - 1
	} else {
		tail = 0
	}
	if iN >= i0 {
		n := iN - i0 + 1
		copyGroup(cg[cpos:], b, gbase+i0*g.stride, bl, g.stride, n, pack)
		cpos += n * bl
	}
	if tail != 0 {
		o := gbase + i1*g.stride
		if pack {
			copy(cg[cpos:cpos+tail], b[o:o+tail])
		} else {
			copy(b[o:o+tail], cg[cpos:cpos+tail])
		}
	}
}

// Runs enumerates the compiled runs backing [d0, d1) with the same
// contract as the package-level Runs (absolute instance-0 buffer
// addressing, groups of evenly spaced runs).  Window-split runs are
// emitted as single (n=1) partial runs, full runs keep their group.
func (p *Program) Runs(d0, d1 int64, emit EmitFunc) {
	if d1 <= d0 {
		return
	}
	size := p.size
	k0 := d0 / size
	k1 := (d1 - 1) / size
	for k := k0; k <= k1; k++ {
		lo, hi := int64(0), size
		if k == k0 {
			lo = d0 - k*size
		}
		if k == k1 {
			hi = d1 - k*size
		}
		org := k * p.ext
		gd := k * size
		gi := p.findGroup(lo)
		for ; gi < len(p.groups) && p.cum[gi] < hi; gi++ {
			g := &p.groups[gi]
			glo := lo - p.cum[gi]
			if glo < 0 {
				glo = 0
			}
			ghi := hi - p.cum[gi]
			if gb := g.blocklen * g.count; ghi > gb {
				ghi = gb
			}
			emitGroup(org+g.base, gd+p.cum[gi], g, glo, ghi, emit)
		}
	}
}

// RunCountUpTo reports how many contiguous runs back [d0, d1) — what
// Runs would enumerate — for a caller that only needs to know whether
// they reach limit: it stops counting at the first group that takes
// the count to limit or beyond, so the result is exact below limit and
// otherwise at least limit.  The count is arithmetic — a division per
// group the range cuts, a multiplication for all the whole instances
// between its ends — so a density rule over a long range of short runs
// costs what its threshold is, not what the range holds.
func (p *Program) RunCountUpTo(d0, d1, limit int64) int64 {
	if d1 <= d0 {
		return 0
	}
	size := p.size
	k0 := d0 / size
	k1 := (d1 - 1) / size
	var runs int64
	for k := k0; k <= k1 && runs < limit; k++ {
		lo, hi := int64(0), size
		if k == k0 {
			lo = d0 - k*size
		}
		if k == k1 {
			hi = d1 - k*size
		}
		if lo == 0 && hi == size {
			// This instance is whole, and so is every one before k1.
			whole := max(k1-k, 1)
			runs += whole * p.runs
			k += whole - 1
			continue
		}
		for gi := p.findGroup(lo); gi < len(p.groups) && p.cum[gi] < hi && runs < limit; gi++ {
			g := &p.groups[gi]
			glo := max(lo-p.cum[gi], 0)
			ghi := min(hi-p.cum[gi], g.blocklen*g.count)
			runs += (ghi-1)/g.blocklen - glo/g.blocklen + 1
		}
	}
	return runs
}

// emitGroup is the enumeration twin of execGroup.
func emitGroup(gbase, gdata int64, g *progGroup, glo, ghi int64, emit EmitFunc) {
	bl := g.blocklen
	i0 := glo / bl
	i1 := (ghi - 1) / bl
	if i0 == i1 {
		off := glo - i0*bl
		emit(gbase+i0*g.stride+off, gdata+glo, ghi-glo, 0, 1)
		return
	}
	if r := glo - i0*bl; r != 0 {
		emit(gbase+i0*g.stride+r, gdata+glo, bl-r, 0, 1)
		i0++
	}
	iN := i1
	tail := ghi - i1*bl
	if tail != bl {
		iN = i1 - 1
	} else {
		tail = 0
	}
	if iN >= i0 {
		emit(gbase+i0*g.stride, gdata+i0*bl, bl, g.stride, iN-i0+1)
	}
	if tail != 0 {
		emit(gbase+i1*g.stride, gdata+i1*bl, tail, 0, 1)
	}
}

// PackCount packs through the compiled program with PackCount's exact
// skip/limit semantics: limit = min(len(dst), count*size - skip).
func (p *Program) PackCount(dst, src []byte, count, skip int64) int64 {
	limit := count*p.size - skip
	if limit > int64(len(dst)) {
		limit = int64(len(dst))
	}
	if limit <= 0 {
		return 0
	}
	p.CopyRange(dst[:limit], src, skip, skip+limit, 0, true)
	return limit
}

// UnpackCount is the inverse of PackCount.
func (p *Program) UnpackCount(dst, src []byte, count, skip int64) int64 {
	limit := count*p.size - skip
	if limit > int64(len(src)) {
		limit = int64(len(src))
	}
	if limit <= 0 {
		return 0
	}
	p.CopyRange(src[:limit], dst, skip, skip+limit, 0, false)
	return limit
}
