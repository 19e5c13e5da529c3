package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
)

// outDir receives the traced run's CPU profile and span log, relative
// to the working directory (the repository root).
const outDir = ".bench_out"

// layers are the buckets CPU samples are charged to: the blobvfs
// packages by module name, the façade (blobvfs), the benchmark's own
// code (bench), any other blobvfs package (other), and samples with no
// blobvfs frame at all (runtime).
var layers = []string{
	"sim", "flownet", "cluster", "blob", "mirror", "p2p", "broadcast",
	"middleware", "vmmodel", "sync", "blobvfs", "bench", "other", "runtime",
}

// layerOf maps a profiled function name to its layer, or "" when the
// function is not blobvfs code (runtime, hash/*, bytes.* and other
// standard-library frames).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "blobvfs/internal/"):
		pkg := strings.TrimPrefix(fn, "blobvfs/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		pkg = pkg[strings.LastIndexByte(pkg, '/')+1:] // sim/flownet → flownet
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "blobvfs."):
		return "blobvfs"
	}
	return ""
}

// runtimeCounters are the Go runtime's cumulative allocation and GC
// counters (runtime/metrics).
type runtimeCounters struct{ allocBytes, gcCycles float64 }

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var rc runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		rc.gcCycles = float64(s[1].Value.Uint64())
	}
	return rc
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// attributeTraced adds the traced sample's per-layer metrics to vals:
// CPU self time per layer, the span-derived façade metrics, and the
// tracing overhead against the untraced median wall_s. It writes the
// profile and span log to outDir.
func attributeTraced(t *sample, vals map[string]float64, workload string, seed int64) error {
	for k, v := range t.host {
		if _, ok := vals[k]; !ok {
			vals[k] = v
		}
	}
	if w := vals["wall_s"]; w > 0 {
		vals["trace.overhead_frac"] = t.wall/w - 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if t.spans != nil {
		vals["trace.spans"] = float64(len(t.spans.spans))
		if err := t.spans.write(base + ".spans.json"); err != nil {
			return err
		}
	}
	if len(t.profile) == 0 {
		return errors.New("no CPU profile recorded")
	}
	if err := os.WriteFile(base+".cpu.pprof", t.profile, 0o644); err != nil {
		return err
	}
	self, total, err := attribute(t.profile)
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	sum := 0.0
	for _, l := range layers {
		vals[l+".self_s"] = self[l]
		sum += self[l]
	}
	vals["trace.profile_s"] = total
	if math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		return fmt.Errorf("per-layer self time %.9f s does not add up to the profile's %.9f s", sum, total)
	}
	return nil
}

// attribute charges each CPU sample's time to the innermost frame that
// belongs to a blobvfs layer; samples with none go to "runtime". It
// returns seconds per layer and the profile's total CPU seconds.
func attribute(gz []byte) (map[string]float64, float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile has no cpu/nanoseconds sample type")
	}
	self := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("sample with too few values")
		}
		sec := float64(s.values[vi]) / 1e9
		total += sec
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] { // innermost inlined frame first
				if l := layerOf(p.str(p.functions[fid])); l != "" {
					layer = l
					break frames
				}
			}
		}
		self[layer] += sec
	}
	return self, total, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses a gzipped profile.proto with a minimal protobuf
// reader (the standard library has no protobuf decoder).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b, func(x uint64) uint64 { return x })
				case 2:
					return appendVarints(&s.values, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b non-nil) or
// not (v).
func appendVarints[T any](dst *[]T, v uint64, b []byte, conv func(uint64) T) error {
	if b == nil {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, conv(x))
		b = b[n:]
	}
	return nil
}
