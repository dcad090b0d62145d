package datatype

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encode serializes t into a compact binary form whose length is
// proportional to the size of the datatype *tree*, not to the number of
// contiguous blocks.  This is the "compact representation" that the
// listless engine exchanges once per fileview (fileview caching), in
// place of the per-access ol-list exchange of list-based I/O.
//
// The encoding is canonical — equal trees encode to equal bytes, so it
// serves as a key — and is computed once per Type and kept with it (see
// Derived): every call on one Type returns the same slice, which the
// caller must not modify.
func Encode(t *Type) []byte {
	return t.encoding()
}

// EncodedSize reports len(Encode(t)).  Like Encode it computes the
// encoding on the first call for a Type and allocates nothing afterwards.
func EncodedSize(t *Type) int {
	return len(t.encoding())
}

func appendType(buf []byte, t *Type) []byte {
	buf = append(buf, byte(t.kind))
	switch t.kind {
	case KindNamed:
		buf = appendVarint(buf, t.size)
		buf = appendString(buf, t.name)
	case KindContiguous:
		buf = appendVarint(buf, t.count)
		buf = appendType(buf, t.child)
	case KindVector:
		buf = appendVarint(buf, t.count)
		buf = appendVarint(buf, t.blocklen)
		buf = appendVarint(buf, t.stride)
		buf = appendType(buf, t.child)
	case KindIndexed:
		buf = appendVarint(buf, int64(len(t.blocklens)))
		for i := range t.blocklens {
			buf = appendVarint(buf, t.blocklens[i])
			buf = appendVarint(buf, t.displs[i])
		}
		buf = appendType(buf, t.child)
	case KindStruct:
		buf = appendVarint(buf, int64(len(t.children)))
		for i := range t.children {
			buf = appendVarint(buf, t.blocklens[i])
			buf = appendVarint(buf, t.displs[i])
			buf = appendType(buf, t.children[i])
		}
	case KindResized:
		buf = appendVarint(buf, t.lb)
		buf = appendVarint(buf, t.Extent())
		buf = appendType(buf, t.child)
	}
	return buf
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendVarint(buf, int64(len(s)))
	return append(buf, s...)
}

// Decode reconstructs a Type from its Encode form.
func Decode(buf []byte) (*Type, error) {
	t, rest, err := decodeType(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("datatype: %d trailing bytes after decode", len(rest))
	}
	return t, nil
}

var errTruncated = errors.New("datatype: truncated encoding")

func decodeType(buf []byte) (*Type, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	var err error
	switch kind {
	case KindNamed:
		var size int64
		var name string
		if size, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if size < 0 {
			return nil, nil, fmt.Errorf("datatype: named type with negative size %d in encoding", size)
		}
		if name, buf, err = readString(buf); err != nil {
			return nil, nil, err
		}
		return namedBySize(name, size), buf, nil
	case KindContiguous:
		var count int64
		if count, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		child, rest, err := decodeType(buf)
		if err != nil {
			return nil, nil, err
		}
		t, err := Contiguous(count, child)
		return t, rest, err
	case KindVector:
		var count, blocklen, stride int64
		if count, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if blocklen, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if stride, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		child, rest, err := decodeType(buf)
		if err != nil {
			return nil, nil, err
		}
		t, err := Hvector(count, blocklen, stride, child)
		return t, rest, err
	case KindIndexed:
		var n int64
		if n, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if n < 0 || n > int64(len(buf)) {
			return nil, nil, errTruncated
		}
		blocklens := make([]int64, n)
		displs := make([]int64, n)
		for i := int64(0); i < n; i++ {
			if blocklens[i], buf, err = readVarint(buf); err != nil {
				return nil, nil, err
			}
			if displs[i], buf, err = readVarint(buf); err != nil {
				return nil, nil, err
			}
		}
		child, rest, err := decodeType(buf)
		if err != nil {
			return nil, nil, err
		}
		t, err := Hindexed(blocklens, displs, child)
		return t, rest, err
	case KindStruct:
		var n int64
		if n, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if n < 0 || n > int64(len(buf)) {
			return nil, nil, errTruncated
		}
		blocklens := make([]int64, n)
		displs := make([]int64, n)
		children := make([]*Type, n)
		for i := int64(0); i < n; i++ {
			if blocklens[i], buf, err = readVarint(buf); err != nil {
				return nil, nil, err
			}
			if displs[i], buf, err = readVarint(buf); err != nil {
				return nil, nil, err
			}
			if children[i], buf, err = decodeType(buf); err != nil {
				return nil, nil, err
			}
		}
		t, err := Struct(blocklens, displs, children)
		return t, buf, err
	case KindResized:
		var lb, extent int64
		if lb, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		if extent, buf, err = readVarint(buf); err != nil {
			return nil, nil, err
		}
		child, rest, err := decodeType(buf)
		if err != nil {
			return nil, nil, err
		}
		t, err := Resized(child, lb, extent)
		return t, rest, err
	}
	return nil, nil, fmt.Errorf("datatype: unknown kind %d in encoding", kind)
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, buf[n:], nil
}

func readString(buf []byte) (string, []byte, error) {
	n, buf, err := readVarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n < 0 || n > int64(len(buf)) {
		return "", nil, errTruncated
	}
	return string(buf[:n]), buf[n:], nil
}
