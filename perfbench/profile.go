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

// hostLayers are the packages the CPU profile is split over; "bench" is
// this benchmark's own code and "runtime" the samples with no frame in
// either (the Go scheduler switching rank goroutines, GC workers).
var hostLayers = []string{"sim", "fabric", "elem", "device", "ccl", "mpi", "core", "bench", "runtime"}

// layerOf maps a profiled function name to its layer: the package under
// mpixccl/internal (subpackages of ccl count as ccl), "bench" for this
// program ("main." in the binary, its import path in a test binary), ""
// for anything else (the Go runtime and standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mpixccl/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "mpixccl/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// packageShares splits the CPU samples of the timed phase over the
// layers: each sample goes to the innermost frame that belongs to a
// layer, so a memmove under fabric.TryTransfer counts as fabric and one
// under elem.Reduce as elem. Samples with a phase label (the benchmark's
// input loading, output checks and barriers) are left out.
func packageShares(gz []byte, layers map[string]float64) error {
	p, err := parseProfile(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if s.harness {
			continue
		}
		total += s.value
		l := p.layer(s.locs)
		if l == "" {
			l = "runtime"
		}
		byLayer[l] += s.value
	}
	for _, l := range hostLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		layers[l+".host_share"] = share
	}
	return nil
}

// profile is the part of a pprof profile the split needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs    []uint64 // leaf first
	value   int64    // CPU nanoseconds (or the sample count if that is all there is)
	harness bool     // labeled phase=verify or phase=barrier
}

func (p *profile) layer(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locations[loc] {
			if l := layerOf(p.str(p.functions[fn])); l != "" {
				return l
			}
		}
	}
	return ""
}

// str looks up the string table, "" for an index outside it.
func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), reading only samples,
// locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]int64
	}
	var samples []rawSample
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s rawSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				case 3:
					var kv [2]int64
					if err := fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := sample{locs: s.locs, value: int64(s.vals[len(s.vals)-1])}
		for _, kv := range s.labels {
			if p.str(kv[0]) == "phase" {
				ps.harness = true
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendPacked appends one repeated integer field's values: a single
// varint, or a packed run of them.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protocol buffer")

// fields walks the top-level fields of one message, calling fn with the
// field number and either the varint value (b == nil) or the bytes of a
// length-delimited field. Fixed-width fields are skipped.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errProto
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}
