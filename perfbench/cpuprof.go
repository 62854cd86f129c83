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

// CPU attribution by module.
//
// Each CPU-profile sample is charged to the innermost stack frame that
// belongs to one of the repository's modules. Standard-library and
// runtime frames carry no module of their own, so they are charged to
// the repository frame that called into them: container/heap under the
// event queue counts as sim, mallocgc under the model checker as
// modelcheck. A sample with no repository frame at all (GC workers,
// the scheduler, the profiler itself) goes to runtime.other.

const (
	repoInternal = "github.com/manetlab/ldr/internal/"
	benchPackage = "github.com/manetlab/ldr/perfbench."
)

// moduleOf returns the repository module a function name belongs to, or
// "" for standard-library and runtime functions. Functions of this
// benchmark's own package (named main. in the binary, by its import path
// under go test) count as module "bench".
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPackage) {
		return "bench"
	}
	if !strings.HasPrefix(fn, repoInternal) {
		return ""
	}
	rest := fn[len(repoInternal):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// stackSample is one profile sample: its stack, innermost frame first,
// and how many profiler ticks it stands for.
type stackSample struct {
	stack []string
	count int64
}

// collapse charges every sample to its module and returns each module's
// share of all samples; samples without a repository frame are keyed
// "runtime.other". The shares sum to 1 when any sample was taken.
func collapse(samples []stackSample) map[string]float64 {
	ticks := map[string]int64{}
	var total int64
	for _, s := range samples {
		mod := "runtime.other"
		for _, fn := range s.stack {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		ticks[mod] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(ticks))
	for m, t := range ticks {
		shares[m] = float64(t) / float64(total)
	}
	return shares
}

// parseCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof into stack samples, innermost frame first, with inlined
// frames expanded. It reads only the fields attribution needs: samples,
// locations, functions and the string table.
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		value []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string-table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					s.value = appendUints(s.value, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.value) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		// Value 0 is the sample count (runtime/pprof writes
		// samples/count first, cpu/nanoseconds second).
		out = append(out, stackSample{stack: stack, count: int64(s.value[0])})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; groups do not occur in profiles.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that arrived either as a
// single varint (v) or packed (b).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
