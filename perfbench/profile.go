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

// Sampled attribution for the layers the wrappers cannot reach: the
// request path inside RunWindow, the contention solver, percentile and
// entropy arithmetic, fleet orchestration and the garbage collector. The
// traced run takes a runtime/pprof CPU profile; every sample is charged to
// one layer by the functions on its stack. The shares are sampled
// estimates (100 Hz), not counts.

// cpuLayers lists the layers the shares are reported for, in output order.
var cpuLayers = []string{
	"sim.arrival", "sim.dispatch", "sim.contention", "sim.other",
	"metrics", "entropy", "core", "sched", "cluster",
	"runtime.gc", "bench", "other",
}

// simFuncLayer maps functions of ahq/internal/sim (and the workload model
// calls made from them) to the sub-layer they belong to.
var simFuncLayer = map[string]string{
	"arrive": "sim.arrival", "poissonDraw": "sim.arrival", "poisson": "sim.arrival",
	"poissonNormal": "sim.arrival", "poissonKnuth": "sim.arrival",
	"sampleService": "sim.arrival", "thinkMean": "sim.arrival",
	"Sample": "sim.arrival", // workload.(*TermMix).Sample: service-time draws

	"dispatchHeap": "sim.dispatch", "dispatchSmall": "sim.dispatch", "dispatchLinear": "sim.dispatch",
	"siftDown": "sim.dispatch", "slotLess": "sim.dispatch", "complete": "sim.dispatch",
	"progress": "sim.dispatch",

	"resolveContention": "sim.contention", "resolveCores": "sim.contention",
	"resolveCache": "sim.contention", "resolveMemBW": "sim.contention",
	"missRatio": "sim.contention", "MissRatio": "sim.contention",
	"growScratch": "sim.contention", "growScratchReq": "sim.contention",
	"noteVector": "sim.contention", "buildKey": "sim.contention", "grab": "sim.contention",
	"capture": "sim.contention", "restore": "sim.contention", "invalidate": "sim.contention",
	"adoptSolve": "sim.contention", "lookup": "sim.contention", "store": "sim.contention",
	"solveShard64": "sim.contention", "sharedSolveKey": "sim.contention",
	"staticSolveKey": "sim.contention", "refreshSolvePrefix": "sim.contention",
}

// pkgLayer maps the remaining packages to layers. Packages absent here
// (machine, trace, units, the standard library) are charged to their
// nearest caller that is present.
var pkgLayer = map[string]string{
	"ahq/internal/metrics":  "metrics",
	"ahq/internal/entropy":  "entropy",
	"ahq/internal/core":     "core",
	"ahq/internal/sched":    "sched",
	"ahq/internal/bayesopt": "sched",
	"ahq/internal/cluster":  "cluster",
	"ahq/internal/pool":     "cluster",
	"ahq/internal/faults":   "cluster",
	"main":                  "bench",
	"ahq/perfbench":         "bench", // package main as its tests are built
}

// gcPrefixes mark a stack as garbage-collector work wherever they appear
// on it (background marking, assists, sweeping, scavenging).
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.sweepone", "runtime.wbBufFlush",
}

// splitFunc splits a symbol such as "ahq/internal/sim.(*appState).arrive"
// into its package path and its bare function name ("arrive"), dropping
// closure suffixes (".func1", ".gowrap2").
func splitFunc(sym string) (pkg, fn string) {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym, ""
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]
	parts := strings.Split(rest, ".")
	for len(parts) > 1 {
		last := parts[len(parts)-1]
		if strings.HasPrefix(last, "func") || strings.HasPrefix(last, "gowrap") || last == "deferwrap1" {
			parts = parts[:len(parts)-1]
			continue
		}
		break
	}
	return pkg, parts[len(parts)-1]
}

// layerOf charges one stack (leaf first) to a layer. The machine-speed
// probe's samples are charged to "probe", which the shares leave out.
func layerOf(stack []string) string {
	for _, f := range stack {
		if pkg, fn := splitFunc(f); fn == "runProbe" && pkgLayer[pkg] == "bench" {
			return "probe"
		}
	}
	for _, f := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range stack {
		pkg, fn := splitFunc(f)
		switch {
		case pkg == "ahq/internal/sim":
			if l, ok := simFuncLayer[fn]; ok {
				return l
			}
			return "sim.other"
		case pkg == "ahq/internal/workload":
			if l, ok := simFuncLayer[fn]; ok {
				return l
			}
		case strings.HasPrefix(pkg, "ahq/internal/sched/"):
			return "sched"
		default:
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, and the number of samples counted.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	frames := make(map[uint64][]string, len(p.locs))
	for id, fnIDs := range p.locs {
		names := make([]string, len(fnIDs))
		for i, f := range fnIDs {
			names[i] = p.str(p.funcs[f])
		}
		frames[id] = names
	}
	weight := map[string]int64{}
	var total, samples int64
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			stack = append(stack, frames[l]...)
		}
		layer := layerOf(stack)
		if layer == "probe" {
			continue
		}
		weight[layer] += s.values[0]
		total += s.values[0]
		samples += s.values[0]
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(weight[l]), float64(total))
	}
	return shares, samples, nil
}

// rawProfile is the subset of profile.proto the attribution reads.
type rawProfile struct {
	samples []rawSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (data nil) or its length-delimited
// payload (v is then 0). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: one value
// (data nil) or a packed run.
func varints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
