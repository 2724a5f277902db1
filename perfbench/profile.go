package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// sample is one CPU-profile sample: its stack as fully qualified
// function names, leaf first (inlined frames expanded), and the CPU
// time it stands for.
type sample struct {
	stack []string
	cpuNS int64
}

// parseCPUProfile decodes a gzipped runtime/pprof CPU profile into its
// samples. It reads only the parts of the profile.proto schema that the
// layer attribution needs (samples, locations, functions, strings), so
// the benchmark stays on the standard library.
func parseCPUProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		sampleTypes []int64 // string-table index of each value's type
		rawSamples  []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]int64{}    // function id -> string-table index
		strs        []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, pb)
				case 2:
					return appendVarints(&s.vals, v, pb)
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if cpu >= len(rs.vals) {
			return nil, errors.New("profile: sample lacks a cpu value")
		}
		s := sample{cpuNS: int64(rs.vals[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if name, ok := funcNames[fn]; ok && name >= 0 && name < int64(len(strs)) {
					s.stack = append(s.stack, strs[name])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in b; fixed-width fields
// are skipped (the schema subset read here has none).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder may
// write one value at a time (v) or packed into one byte string (b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
