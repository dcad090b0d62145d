package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// CPU shares per layer, from a sampling profile of the traced round.
//
// The counters the layers export split an op into copy, exchange and
// storage and leave the rest unnamed; on irr the rest is four fifths of
// the op.  A CPU profile (runtime/pprof, taken by the benchmark around
// the traced round's timed ops) names it without a span inside the
// program: every sample is charged to the layer of the innermost frame
// that belongs to one, so the memmove a pack loop calls is fotf's and the
// write(2) under a frame connection is transport's.  Samples with no
// layer frame at all (collector, scheduler, netpoller) are runtime's.
//
// The profile is the gzipped protobuf of github.com/google/pprof's
// profile.proto; the standard library writes it and has no public reader,
// so the few fields needed are decoded here.

// cpuLayers are the buckets, in the order of the ledger.
var cpuLayers = []string{"datatype", "fotf", "core", "mpi", "transport", "storage", "ioserver", "pool", "runtime", "bench", "other"}

// layerOf names the bucket a function belongs to, "" for none.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		name := rest[:strings.IndexAny(rest+".", "./")]
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other" // obs, trace: the layers' own instrumentation
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/benchmark.") {
		return "bench"
	}
	return ""
}

var errProfile = errors.New("malformed CPU profile")

// pbuf reads protobuf wire format.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64 && len(*b) > 0; shift += 7 {
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProfile
}

// field reads the next field: its number, and its value as a varint or
// as the bytes of a length-delimited or fixed-width field.
func (b *pbuf) field() (num int, v uint64, data pbuf, err error) {
	tag, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	n := uint64(0)
	switch tag & 7 {
	case 0:
		v, err = b.varint()
		return int(tag >> 3), v, nil, err
	case 1:
		n = 8
	case 2:
		if n, err = b.varint(); err != nil {
			return 0, 0, nil, err
		}
	case 5:
		n = 4
	default:
		return 0, 0, nil, errProfile
	}
	if n > uint64(len(*b)) {
		return 0, 0, nil, errProfile
	}
	data, *b = (*b)[:n], (*b)[n:]
	return int(tag >> 3), 0, data, nil
}

// each calls fn for every field of the message.
func (b pbuf) each(fn func(num int, v uint64, data pbuf) error) error {
	for len(b) > 0 {
		num, v, data, err := b.field()
		if err == nil {
			err = fn(num, v, data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// repeated appends the values of a repeated integer field, packed or not.
func repeated(dst []uint64, v uint64, data pbuf) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuShares returns, per bucket of cpuLayers, its share of the profile's
// CPU time; the shares sum to 1.  A profile without samples is an error.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs   []uint64 // leaf first
		values []uint64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
	funcName := map[uint64]uint64{}   // function id → index into strs
	var strs []string
	err = pbuf(raw).each(func(num int, _ uint64, data pbuf) error {
		switch num {
		case 2: // sample
			var s sample
			err := data.each(func(num int, v uint64, d pbuf) (err error) {
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := data.each(func(num int, v uint64, d pbuf) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return d.each(func(num int, v uint64, _ pbuf) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := data.each(func(num int, v uint64, _ pbuf) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := make(map[string]float64, len(cpuLayers))
	var total float64
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProfile
		}
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := funcName[fn]
				if name >= uint64(len(strs)) {
					return nil, errProfile
				}
				if l := layerOf(strs[name]); l != "" {
					layer = l
					break frames
				}
			}
		}
		// The last value of a CPU profile's sample is its nanoseconds.
		ns := float64(s.values[len(s.values)-1])
		shares[layer] += ns
		total += ns
	}
	if total == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	for _, l := range cpuLayers {
		shares[l] /= total
	}
	return shares, nil
}
