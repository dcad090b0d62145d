// Package datatype implements an MPI-style derived-datatype engine.
//
// A Type describes the layout of typed data in a buffer as a tree built
// from named (basic) types and the MPI type constructors: contiguous,
// vector, hvector, indexed, hindexed, struct, subarray and resized.  The
// tree is the succinct representation whose absence in ROMIO-style
// implementations ("ol-lists" of ⟨offset,length⟩ tuples) is the bottleneck
// analyzed by Worringen, Träff and Ritzdorf, "Fast Parallel Non-Contiguous
// File Access" (SC'03).
//
// Types are immutable after construction and safe for concurrent use;
// data derived from a type is memoized in its Derived slot.
// All offsets, sizes and extents are in bytes unless stated otherwise.
package datatype

import (
	"errors"
	"fmt"
)

// Kind identifies the constructor that produced a Type node.
type Kind uint8

// The type-constructor kinds.
const (
	KindNamed      Kind = iota // basic type (byte, int32, double, ...) or LB/UB marker
	KindContiguous             // count consecutive children
	KindVector                 // count blocks of blocklen children, regular stride
	KindIndexed                // blocks of children at per-block displacements
	KindStruct                 // blocks of heterogeneous children at displacements
	KindResized                // child with overridden lower bound and extent
)

func (k Kind) String() string {
	switch k {
	case KindNamed:
		return "named"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindIndexed:
		return "indexed"
	case KindStruct:
		return "struct"
	case KindResized:
		return "resized"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Type is an immutable node in a derived-datatype tree.
//
// The zero Type is not valid; use the named types (Byte, Double, ...) and
// the constructors (Contiguous, Vector, ...) to build values.
type Type struct {
	kind Kind
	name string // non-empty for named types

	// Derived properties, computed at construction.
	size     int64 // bytes of actual data in one instance
	lb, ub   int64 // lower/upper bound; extent = ub-lb
	trueLB   int64 // lowest byte of actual data
	trueUB   int64 // one past the highest byte of actual data
	depth    int   // tree depth; a named type has depth 1
	blocks   int64 // contiguous leaf blocks per instance (uncoalesced)
	mono     bool  // the runs of one instance ascend in type-map order without overlapping
	dense    bool  // data of one instance forms a single contiguous run
	tileable bool  // repeated instances remain one run (dense && size==extent && trueLB==lb)
	hasLB    bool  // an explicit MPI_LB marker fixes lb
	hasUB    bool  // an explicit MPI_UB marker fixes ub

	// Constructor arguments (normalized: strides/displacements in bytes).
	count     int64 // contiguous, vector: repetition count
	blocklen  int64 // vector: children per block
	stride    int64 // vector: byte distance between block starts
	blocklens []int64
	displs    []int64 // byte displacements (indexed, struct)
	child     *Type   // contiguous, vector, indexed, resized
	children  []*Type // struct

	derived Derived // lazily filled; the only part of a Type that changes
}

// Kind reports the constructor kind of t.
func (t *Type) Kind() Kind { return t.kind }

// Name reports the name of a named type and "" for derived types.
func (t *Type) Name() string { return t.name }

// Size reports the number of bytes of actual data in one instance of t.
func (t *Type) Size() int64 { return t.size }

// Extent reports ub-lb, the stride at which consecutive instances of t
// are laid out.
func (t *Type) Extent() int64 { return t.ub - t.lb }

// LB reports the lower bound of t.
func (t *Type) LB() int64 { return t.lb }

// UB reports the upper bound of t.
func (t *Type) UB() int64 { return t.ub }

// TrueLB reports the lowest byte offset occupied by data of one instance.
func (t *Type) TrueLB() int64 { return t.trueLB }

// TrueUB reports one past the highest byte offset occupied by data.
func (t *Type) TrueUB() int64 { return t.trueUB }

// TrueExtent reports TrueUB-TrueLB, the span of actual data.
func (t *Type) TrueExtent() int64 { return t.trueUB - t.trueLB }

// Depth reports the depth of the datatype tree.  Navigation and
// pack/unpack setup in the listless engine cost O(Depth), in contrast to
// the O(Blocks) costs of ol-list handling.
func (t *Type) Depth() int { return t.depth }

// Blocks reports the number of (uncoalesced) contiguous leaf blocks in one
// instance of t.  This is the length a flattened ol-list of t would have
// before coalescing, i.e. the N_block of the paper.
func (t *Type) Blocks() int64 { return t.blocks }

// Dense reports whether the data of a single instance forms one
// contiguous run of bytes.
func (t *Type) Dense() bool { return t.dense }

// Monotone reports whether the contiguous runs of one instance, in
// type-map order (the order Walk emits them), each start at or after the
// end of the one before: the type-map order MPI-IO asks of etypes and
// filetypes.  It is decided from the tree when each node is built, in
// time proportional to the node's own blocks, never from the runs.
func (t *Type) Monotone() bool { return t.mono }

// ContiguousTiled reports whether count consecutive instances of t form a
// single contiguous run for every count, i.e. the type behaves like a
// plain byte range under repetition.
func (t *Type) ContiguousTiled() bool { return t.tileable }

// Count reports the repetition count of contiguous and vector types.
func (t *Type) Count() int64 { return t.count }

// Blocklen reports the per-block child count of vector types.
func (t *Type) Blocklen() int64 { return t.blocklen }

// StrideBytes reports the byte distance between block starts of vector
// types.
func (t *Type) StrideBytes() int64 { return t.stride }

// Blocklens reports the per-block child counts of indexed and struct
// types.  The caller must not modify the returned slice.
func (t *Type) Blocklens() []int64 { return t.blocklens }

// Displs reports the byte displacements of indexed and struct types.  The
// caller must not modify the returned slice.
func (t *Type) Displs() []int64 { return t.displs }

// Child reports the element type of contiguous, vector, indexed and
// resized types, and nil for named and struct types.
func (t *Type) Child() *Type { return t.child }

// Children reports the member types of a struct type.  The caller must
// not modify the returned slice.
func (t *Type) Children() []*Type { return t.children }

// Walk calls emit for every contiguous leaf block of one instance of t,
// in type-map order.  Offsets are byte displacements from the instance
// origin (they may be negative when lb < 0).  Zero-length blocks (from
// markers and empty members) are not emitted.  Walk is the reference
// traversal used to build ol-lists; its cost is O(Blocks()).
func (t *Type) Walk(emit func(off, length int64)) {
	t.walk(0, emit)
}

func (t *Type) walk(base int64, emit func(off, length int64)) {
	if t.size == 0 {
		return
	}
	switch t.kind {
	case KindNamed:
		emit(base, t.size)
	case KindContiguous:
		ext := t.child.Extent()
		if t.child.dense && t.child.size == ext {
			// Whole region is one run.
			emit(base+t.child.trueLB, t.count*t.child.size)
			return
		}
		for i := int64(0); i < t.count; i++ {
			t.child.walk(base+i*ext, emit)
		}
	case KindVector:
		ext := t.child.Extent()
		blockDense := t.child.dense && (t.child.size == ext || t.blocklen == 1)
		for i := int64(0); i < t.count; i++ {
			bb := base + i*t.stride
			if blockDense {
				emit(bb+t.child.trueLB, t.blocklen*t.child.size)
				continue
			}
			for j := int64(0); j < t.blocklen; j++ {
				t.child.walk(bb+j*ext, emit)
			}
		}
	case KindIndexed:
		ext := t.child.Extent()
		blockDense := t.child.dense && t.child.size == ext
		for i, bl := range t.blocklens {
			bb := base + t.displs[i]
			if bl == 0 {
				continue
			}
			if blockDense || (bl == 1 && t.child.dense) {
				emit(bb+t.child.trueLB, bl*t.child.size)
				continue
			}
			for j := int64(0); j < bl; j++ {
				t.child.walk(bb+j*ext, emit)
			}
		}
	case KindStruct:
		for i, c := range t.children {
			bl := t.blocklens[i]
			if bl == 0 || c.size == 0 {
				continue
			}
			bb := base + t.displs[i]
			ext := c.Extent()
			if c.dense && c.size == ext {
				emit(bb+c.trueLB, bl*c.size)
				continue
			}
			for j := int64(0); j < bl; j++ {
				c.walk(bb+j*ext, emit)
			}
		}
	case KindResized:
		t.child.walk(base, emit)
	}
}

// Named basic types.  LBMarker and UBMarker are the MPI_LB / MPI_UB
// pseudo-types: zero-size markers that pin the bounds of an enclosing
// struct type.
var (
	Byte       = named("byte", 1)
	Char       = named("char", 1)
	Int8       = named("int8", 1)
	Int16      = named("int16", 2)
	Int32      = named("int32", 4)
	Int64      = named("int64", 8)
	Uint64     = named("uint64", 8)
	Float32    = named("float32", 4)
	Float64    = named("float64", 8)
	Double     = Float64
	Complex128 = named("complex128", 16)

	LBMarker = &Type{kind: KindNamed, name: "lb", depth: 1, hasLB: true, mono: true, dense: true, tileable: true}
	UBMarker = &Type{kind: KindNamed, name: "ub", depth: 1, hasUB: true, mono: true, dense: true, tileable: true}
)

func named(name string, size int64) *Type {
	return &Type{
		kind:     KindNamed,
		name:     name,
		size:     size,
		ub:       size,
		trueUB:   size,
		depth:    1,
		blocks:   1,
		mono:     true,
		dense:    true,
		tileable: true,
	}
}

// namedBySize returns a plausible named type of the given size, for
// decoding.  Unknown sizes decode as anonymous named types.
func namedBySize(name string, size int64) *Type {
	for _, t := range []*Type{Byte, Char, Int8, Int16, Int32, Int64, Uint64, Float32, Float64, Complex128} {
		if t.name == name && t.size == size {
			return t
		}
	}
	if name == "lb" {
		return LBMarker
	}
	if name == "ub" {
		return UBMarker
	}
	return named(name, size)
}

// errors shared by the constructors.
var (
	errNilChild    = errors.New("datatype: nil child type")
	errNegCount    = errors.New("datatype: negative count")
	errNegBlock    = errors.New("datatype: negative block length")
	errLenMismatch = errors.New("datatype: blocklens and displs length mismatch")
	errTooLarge    = errors.New("datatype: type size or extent exceeds the supported maximum")
)

// maxTypeBytes bounds every size, extent and displacement magnitude a
// constructor accepts, so that derived-property arithmetic cannot
// overflow int64 (important when decoding untrusted encodings).
const maxTypeBytes = 1 << 56

// checkMagnitude verifies |v| stays within maxTypeBytes.
func checkMagnitude(vs ...int64) error {
	for _, v := range vs {
		if v > maxTypeBytes || v < -maxTypeBytes {
			return errTooLarge
		}
	}
	return nil
}

// mulCheck multiplies non-negative a and b, reporting overflow of the
// maxTypeBytes budget.
func mulCheck(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	if a > maxTypeBytes/b {
		return 0, errTooLarge
	}
	return a * b, nil
}

// Contiguous returns a type of count consecutive instances of child.
func Contiguous(count int64, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	if count < 0 {
		return nil, errNegCount
	}
	if _, err := mulCheck(count, max64(child.size, abs64(child.Extent()))); err != nil {
		return nil, err
	}
	t := &Type{
		kind:  KindContiguous,
		count: count,
		child: child,
	}
	t.finishHomogeneous(vectorShape{count: 1, blocklen: count, stride: 0})
	return t, nil
}

// Vector returns a type of count blocks, each of blocklen consecutive
// instances of child, with consecutive block starts stride child-extents
// apart (like MPI_Type_vector).
func Vector(count, blocklen, stride int64, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	return Hvector(count, blocklen, stride*child.Extent(), child)
}

// Hvector is Vector with the stride given in bytes
// (like MPI_Type_create_hvector).
func Hvector(count, blocklen, strideBytes int64, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	if count < 0 {
		return nil, errNegCount
	}
	if blocklen < 0 {
		return nil, errNegBlock
	}
	n, err := mulCheck(count, blocklen)
	if err != nil {
		return nil, err
	}
	if _, err := mulCheck(n, max64(child.size, abs64(child.Extent()))); err != nil {
		return nil, err
	}
	if _, err := mulCheck(count, abs64(strideBytes)); err != nil {
		return nil, err
	}
	t := &Type{
		kind:     KindVector,
		count:    count,
		blocklen: blocklen,
		stride:   strideBytes,
		child:    child,
	}
	t.finishHomogeneous(vectorShape{count: count, blocklen: blocklen, stride: strideBytes})
	return t, nil
}

// Indexed returns a type with len(blocklens) blocks; block i has
// blocklens[i] consecutive instances of child and starts displs[i]
// child-extents from the origin (like MPI_Type_indexed).
func Indexed(blocklens, displs []int64, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	b := make([]int64, len(displs))
	for i, d := range displs {
		b[i] = d * child.Extent()
	}
	return Hindexed(blocklens, b, child)
}

// Hindexed is Indexed with displacements given in bytes
// (like MPI_Type_create_hindexed).
func Hindexed(blocklens, displsBytes []int64, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	if len(blocklens) != len(displsBytes) {
		return nil, errLenMismatch
	}
	var total int64
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, errNegBlock
		}
		n, err := mulCheck(bl, max64(child.size, abs64(child.Extent())))
		if err != nil {
			return nil, err
		}
		if total += n; total > maxTypeBytes {
			return nil, errTooLarge
		}
		if err := checkMagnitude(displsBytes[i]); err != nil {
			return nil, err
		}
	}
	t := &Type{
		kind:      KindIndexed,
		blocklens: append([]int64(nil), blocklens...),
		displs:    append([]int64(nil), displsBytes...),
		child:     child,
	}
	t.finishIndexed()
	return t, nil
}

// Struct returns a type with len(children) blocks; block i has
// blocklens[i] consecutive instances of children[i] and starts at byte
// displacement displs[i] (like MPI_Type_create_struct).  LBMarker and
// UBMarker members pin the bounds explicitly.
func Struct(blocklens, displs []int64, children []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(children) {
		return nil, errLenMismatch
	}
	var total int64
	for i, c := range children {
		if c == nil {
			return nil, errNilChild
		}
		if blocklens[i] < 0 {
			return nil, errNegBlock
		}
		n, err := mulCheck(blocklens[i], max64(c.size, abs64(c.Extent())))
		if err != nil {
			return nil, err
		}
		if total += n; total > maxTypeBytes {
			return nil, errTooLarge
		}
		if err := checkMagnitude(displs[i]); err != nil {
			return nil, err
		}
	}
	t := &Type{
		kind:      KindStruct,
		blocklens: append([]int64(nil), blocklens...),
		displs:    append([]int64(nil), displs...),
		children:  append([]*Type(nil), children...),
	}
	t.finishStruct()
	return t, nil
}

// Resized returns child with its lower bound and extent overridden
// (like MPI_Type_create_resized).
func Resized(child *Type, lb, extent int64) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	if err := checkMagnitude(lb, extent, lb+extent); err != nil {
		return nil, err
	}
	t := &Type{
		kind:   KindResized,
		child:  child,
		size:   child.size,
		lb:     lb,
		ub:     lb + extent,
		trueLB: child.trueLB,
		trueUB: child.trueUB,
		depth:  child.depth + 1,
		blocks: child.blocks,
		mono:   child.mono,
		dense:  child.dense,
		hasLB:  true,
		hasUB:  true,
	}
	t.tileable = t.dense && t.size == t.Extent() && t.trueLB == t.lb
	return t, nil
}

// Order selects the array storage order for Subarray.
type Order uint8

// Array storage orders.
const (
	OrderC       Order = iota // row-major: last dimension varies fastest
	OrderFortran              // column-major: first dimension varies fastest
)

// Subarray returns the type selecting the subsizes[...] region starting
// at starts[...] out of a sizes[...] array of child elements (like
// MPI_Type_create_subarray).  The resulting extent is the full array, so
// the type tiles correctly when used as a filetype.
func Subarray(sizes, subsizes, starts []int64, order Order, child *Type) (*Type, error) {
	if child == nil {
		return nil, errNilChild
	}
	n := len(sizes)
	if n == 0 || len(subsizes) != n || len(starts) != n {
		return nil, errors.New("datatype: subarray dimension mismatch")
	}
	for d := 0; d < n; d++ {
		if sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("datatype: invalid subarray dim %d: size=%d subsize=%d start=%d",
				d, sizes[d], subsizes[d], starts[d])
		}
	}
	// Normalize to C order (last dim fastest) for the recursion below.
	if order == OrderFortran {
		sizes = reverse64(sizes)
		subsizes = reverse64(subsizes)
		starts = reverse64(starts)
	} else {
		sizes = append([]int64(nil), sizes...)
		subsizes = append([]int64(nil), subsizes...)
		starts = append([]int64(nil), starts...)
	}
	// Build innermost-out: a run of subsizes[n-1] children, then vectors.
	cur, err := Contiguous(subsizes[n-1], child)
	if err != nil {
		return nil, err
	}
	rowBytes := child.Extent() // bytes per element along the fastest dim
	dimBytes := rowBytes * sizes[n-1]
	offset := starts[n-1] * rowBytes
	for d := n - 2; d >= 0; d-- {
		cur, err = Hvector(subsizes[d], 1, dimBytes, cur)
		if err != nil {
			return nil, err
		}
		offset += starts[d] * dimBytes
		dimBytes *= sizes[d]
	}
	// Place at the start offset and pin the extent to the whole array.
	placed, err := Struct([]int64{1}, []int64{offset}, []*Type{cur})
	if err != nil {
		return nil, err
	}
	return Resized(placed, 0, dimBytes)
}

func reverse64(s []int64) []int64 {
	out := make([]int64, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// vectorShape captures the homogeneous-layout parameters shared by
// contiguous and (h)vector for derived-property computation.
type vectorShape struct {
	count, blocklen int64
	stride          int64 // bytes between block starts
}

func (t *Type) finishHomogeneous(sh vectorShape) {
	c := t.child
	cext := c.Extent()
	t.size = sh.count * sh.blocklen * c.size
	t.depth = c.depth + 1
	t.blocks = sh.count * sh.blocklen * c.blocks
	if c.dense && (c.size == cext || sh.blocklen <= 1) {
		// Each block is one run.
		t.blocks = sh.count
		if sh.blocklen == 0 || c.size == 0 {
			t.blocks = 0
		}
	}

	// Bounds.  Empty types have lb=ub=0 unless markers apply.
	if sh.count == 0 || sh.blocklen == 0 {
		t.hasLB, t.hasUB = c.hasLB, c.hasUB
		t.mono = true
		t.dense = true
		t.tileable = true
		return
	}
	blockSpan := (sh.blocklen - 1) * cext // start of last child in a block
	lastBlock := (sh.count - 1) * sh.stride
	lo, hi := int64(0), lastBlock
	if sh.stride < 0 {
		lo, hi = lastBlock, 0
	}
	t.lb = lo + c.lb
	t.ub = hi + blockSpan + c.ub
	if blockSpan < 0 { // negative child extent
		t.lb = lo + blockSpan + c.lb
		t.ub = hi + c.ub
	}
	t.hasLB, t.hasUB = c.hasLB, c.hasUB
	if c.size > 0 {
		t.trueLB = lo + min64(0, blockSpan) + c.trueLB
		t.trueUB = hi + max64(0, blockSpan) + c.trueUB
	}
	// The children ascend within a block when each clears the span of
	// the one before, and the blocks when the stride clears a block.
	cspan := c.trueUB - c.trueLB
	t.mono = c.size == 0 || c.mono && (sh.blocklen == 1 || cext >= cspan) &&
		(sh.count == 1 || sh.stride-blockSpan >= cspan)
	t.computeDensity()
	// A single fully-dense block is one run.
	if t.dense {
		if sh.count == 1 || (c.dense && c.size == cext && sh.blocklen*cext == sh.stride) || sh.blocklen*c.size == 0 {
			t.blocks = 1
		}
	}
	if t.size == 0 {
		t.blocks = 0
	}
}

func (t *Type) finishIndexed() {
	c := t.child
	cext := c.Extent()
	first := true
	firstTrue := true
	var asc ascending
	for i, bl := range t.blocklens {
		asc.block(t.displs[i], bl, c)
		t.size += bl * c.size
		t.blocks += bl * c.blocks
		if c.dense && c.size == cext && bl > 0 {
			t.blocks -= bl*c.blocks - 1 // whole block is one run
		}
		d := t.displs[i]
		span := int64(0)
		if bl > 0 {
			span = (bl - 1) * cext
		}
		blo := d + min64(0, span) + c.lb
		bhi := d + max64(0, span) + c.ub
		if first {
			t.lb, t.ub = blo, bhi
			first = false
		} else {
			t.lb = min64(t.lb, blo)
			t.ub = max64(t.ub, bhi)
		}
		if bl > 0 && c.size > 0 {
			tlo := d + min64(0, span) + c.trueLB
			thi := d + max64(0, span) + c.trueUB
			if firstTrue {
				t.trueLB, t.trueUB = tlo, thi
				firstTrue = false
			} else {
				t.trueLB = min64(t.trueLB, tlo)
				t.trueUB = max64(t.trueUB, thi)
			}
		}
	}
	if first { // no blocks at all
		t.dense, t.tileable = true, true
	}
	t.mono = !asc.broken
	t.hasLB, t.hasUB = c.hasLB, c.hasUB
	t.depth = c.depth + 1
	t.computeDensity()
	if t.size == 0 {
		t.blocks = 0
	}
}

func (t *Type) finishStruct() {
	first := true
	firstTrue := true
	var lbCands, ubCands []int64 // explicit marker candidates
	var asc ascending
	for i, c := range t.children {
		bl := t.blocklens[i]
		d := t.displs[i]
		cext := c.Extent()
		asc.block(d, bl, c)
		t.size += bl * c.size
		if bl > 0 {
			t.blocks += bl * c.blocks
			if c.dense && c.size == cext {
				t.blocks -= bl*c.blocks - 1
			}
		}
		if bl == 0 {
			// A zero-length member replicates its typemap zero times and
			// so contributes nothing — not even explicit bound markers
			// (MPI typemap semantics).
			if c.depth+1 > t.depth {
				t.depth = c.depth + 1
			}
			continue
		}
		span := (bl - 1) * cext
		if c.hasLB {
			lbCands = append(lbCands, d+min64(0, span)+c.lb)
		}
		if c.hasUB {
			ubCands = append(ubCands, d+max64(0, span)+c.ub)
		}
		blo := d + min64(0, span) + c.lb
		bhi := d + max64(0, span) + c.ub
		if first {
			t.lb, t.ub = blo, bhi
			first = false
		} else {
			t.lb = min64(t.lb, blo)
			t.ub = max64(t.ub, bhi)
		}
		if bl > 0 && c.size > 0 {
			tlo := d + min64(0, span) + c.trueLB
			thi := d + max64(0, span) + c.trueUB
			if firstTrue {
				t.trueLB, t.trueUB = tlo, thi
				firstTrue = false
			} else {
				t.trueLB = min64(t.trueLB, tlo)
				t.trueUB = max64(t.trueUB, thi)
			}
		}
		if c.depth+1 > t.depth {
			t.depth = c.depth + 1
		}
	}
	if t.depth == 0 {
		t.depth = 1
	}
	if len(lbCands) > 0 {
		t.hasLB = true
		t.lb = lbCands[0]
		for _, v := range lbCands[1:] {
			t.lb = min64(t.lb, v)
		}
	}
	if len(ubCands) > 0 {
		t.hasUB = true
		t.ub = ubCands[0]
		for _, v := range ubCands[1:] {
			t.ub = max64(t.ub, v)
		}
	}
	if first && len(lbCands) == 0 && len(ubCands) == 0 {
		t.dense, t.tileable = true, true
	}
	t.mono = !asc.broken
	t.computeDensity()
	if t.size == 0 {
		t.blocks = 0
	}
}

// ascending follows the monotone rule through the blocks of an indexed
// or struct node, one block at a time: a block's instances ascend when
// the child does and its extent clears the child's data span, and the
// block follows the previous one when its data starts at or after the
// end of theirs.  It is the inequality of the node's own blocks, so a
// node costs its block count, whatever lies below it.
type ascending struct {
	end    int64 // end of the data of the blocks so far
	some   bool  // a block with data was seen
	broken bool
}

// block takes the next block: bl instances of c at displacement d.
func (a *ascending) block(d, bl int64, c *Type) {
	if bl == 0 || c.size == 0 || a.broken {
		return
	}
	span := (bl - 1) * c.Extent()
	if !c.mono || bl > 1 && c.Extent() < c.trueUB-c.trueLB || a.some && d+c.trueLB < a.end {
		a.broken = true
		return
	}
	a.end, a.some = d+span+c.trueUB, true
}

// computeDensity sets dense and tileable.  A type is dense when its
// runs ascend and their bytes fill the span from the first to the last:
// then each run starts where the one before ends.
func (t *Type) computeDensity() {
	if t.size == 0 {
		t.dense = true
		t.tileable = t.Extent() == 0
		return
	}
	t.dense = t.mono && t.size == t.trueUB-t.trueLB
	if t.dense {
		t.blocks = 1
	}
	t.tileable = t.dense && t.size == t.Extent() && t.trueLB == t.lb
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
