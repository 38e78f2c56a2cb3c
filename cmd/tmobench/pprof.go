package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of a runtime/pprof CPU profile (gzipped
// profile.proto) to attribute self time to Go packages: the module takes no
// dependencies, so the protobuf wire format is read by hand.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload (fixed32/fixed64 fields are skipped; profile.proto has none).
type pbField struct {
	num   int
	isLen bool
	v     uint64
	data  []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.isLen = true
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("pprof: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, which runtime/pprof
// writes packed or unpacked depending on the count.
func (f pbField) varints() ([]uint64, error) {
	if !f.isLen {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// packageSelfTime decodes a gzipped CPU profile and sums each sample's last
// value (CPU nanoseconds) by the Go package of its leaf frame — the
// innermost inlined function at the sampled PC.
func packageSelfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locFunc := map[uint64]uint64{} // location id → leaf function id
	var samples []pbField
	for _, f := range fields {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profSample:
			samples = append(samples, f)
		case profFunction:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, s := range sub {
				switch s.num {
				case functionID:
					id = s.v
				case functionName:
					name = int64(s.v)
				}
			}
			funcName[id] = name
		case profLocation:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			leaf := true
			for _, s := range sub {
				switch s.num {
				case locationID:
					id = s.v
				case locationLine:
					// The first line is the innermost inlined frame.
					if !leaf {
						continue
					}
					leaf = false
					ls, err := pbFields(s.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == lineFunctionID {
							fn = l.v
						}
					}
				}
			}
			locFunc[id] = fn
		}
	}

	out := map[string]int64{}
	for _, f := range samples {
		sub, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, s := range sub {
			var vs []uint64
			if vs, err = s.varints(); err != nil {
				return nil, err
			}
			switch s.num {
			case sampleLocationID:
				locs = append(locs, vs...)
			case sampleValue:
				vals = append(vals, vs...)
			}
		}
		if len(vals) == 0 {
			continue
		}
		pkg := "unknown"
		if len(locs) > 0 {
			if fn, ok := locFunc[locs[0]]; ok {
				if idx, ok := funcName[fn]; ok && idx >= 0 && idx < int64(len(strs)) {
					pkg = funcPackage(strs[idx])
				}
			}
		}
		out[pkg] += int64(vals[len(vals)-1])
	}
	return out, nil
}

// funcPackage extracts the import path from a symbol name such as
// "tmo/internal/mm.(*Manager).reclaim" or "slices.SortFunc[...]".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiation: type args may hold paths
	}
	slash := strings.LastIndexByte(sym, '/')
	if i := strings.IndexByte(sym[slash+1:], '.'); i >= 0 {
		return sym[:slash+1+i]
	}
	return sym
}

// layerOf maps a Go package to the layer the benchmark reports: each module
// under internal/ by its name, the Go runtime as "runtime", this command and
// the rest of the repository as "bench", and the rest of the standard
// library as "stdlib".
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "tmo/internal/"):
		return strings.TrimPrefix(pkg, "tmo/internal/")
	case pkg == "main" || strings.HasPrefix(pkg, "tmo/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "unknown":
		return "unknown"
	}
	return "stdlib"
}

// layerShares rolls package self time up into per-layer percentages that
// sum to 100.
func layerShares(byPkg map[string]int64) map[string]float64 {
	var total int64
	for _, v := range byPkg {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for pkg, v := range byPkg {
		out[layerOf(pkg)] += 100 * float64(v) / float64(total)
	}
	return out
}
