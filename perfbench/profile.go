package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostShares splits a runtime/pprof CPU profile's self time over
// hostModules. A sample whose innermost frame is simulator code is charged
// to that frame's layer; one whose innermost frame is the Go runtime is
// charged by what the runtime was doing, read from the runtime frames
// around it. It decodes the gzipped profile.proto directly, so the
// benchmark needs nothing beyond the standard library.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, m := range hostModules {
		shares[m] = 0
	}
	var total float64
	var frames []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fn := range p.locs[id] {
				frames = append(frames, p.strings[p.funcs[fn]])
			}
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		shares[bucketOf(frames)] += v
		total += v
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// layerPackages maps repro/internal packages to the host_share bucket of
// the layer they belong to.
var layerPackages = map[string]string{
	"sim": "sim", "mpi": "mpi",
	"machine": "machine", "topo": "machine", "fabric": "machine", "bgp": "machine",
	"storage": "storage", "gpfs": "storage", "pvfs": "storage", "bbuf": "storage", "fsys": "storage",
	"mpiio": "mpiio", "ckpt": "ckpt", "nekcem": "nekcem",
	"recover": "recover", "fault": "recover",
}

// Runtime frames that say what the runtime is doing. gcFrames and
// stackFrames match by prefix, schedFrames by name with trailing digits
// dropped (chanrecv1, goexit0).
var (
	gcFrames = []string{
		"gcBgMarkWorker", "gcDrain", "gcAssist", "markroot", "scanobject", "scanblock",
		"scanstack", "scanframeworker", "greyobject", "bgsweep", "sweepone", "sweep",
		"gcMark", "gcStart", "gcSweep", "gcFlushBgCredit", "wbBuf", "gcWriteBarrier",
		"bulkBarrier", "gcmarknewobject", "stopTheWorld", "startTheWorld", "bgscavenge",
	}
	stackFrames = []string{"morestack", "newstack", "copystack", "shrinkstack"}
	schedFrames = []string{
		"chansend", "chanrecv", "send", "recv", "closechan", "chanparkcommit", "dequeue", "enqueue",
		"selectgo", "gopark", "goparkunlock", "goready", "ready", "park_m", "schedule",
		"findRunnable", "execute", "gogo", "mcall", "runqget", "runqput", "runqgrab",
		"runqsteal", "lock2", "unlock2", "futex", "futexsleep", "futexwakeup", "notesleep",
		"notewakeup", "stopm", "startm", "wakep", "handoffp", "mPark", "acquirep", "releasep",
		"resetspinning", "injectglist", "dropg", "casgstatus", "goexit", "newproc", "gfget",
		"gfput", "checkTimers", "netpoll", "usleep", "osyield", "procyield", "semasleep",
		"semawakeup", "sysmon",
	}
)

// bucketOf charges a sample, given its frames innermost first.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if rest, ok := strings.CutPrefix(frames[0], "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if m, ok := layerPackages[pkg]; ok {
			return m
		}
		return "other"
	}
	if !isRuntime(frames[0]) {
		return "other"
	}
	// The runtime frames between the sample and the code that called into
	// the runtime: GC work first (its locks and waits are GC), then stack
	// growth, then scheduling and channel handoff.
	var rt []string
	for _, f := range frames {
		if !isRuntime(f) {
			break
		}
		rt = append(rt, runtimeName(f))
	}
	switch {
	case anyPrefix(rt, gcFrames):
		return "runtime.gc"
	case anyPrefix(rt, stackFrames):
		return "runtime.other"
	}
	for _, f := range rt {
		base := strings.TrimRight(f, "0123456789")
		for _, s := range schedFrames {
			if base == s {
				return "runtime.sched"
			}
		}
	}
	return "runtime.other"
}

// isRuntime reports whether fn is Go runtime code: the runtime package or
// one of its assembly routines, whose symbols carry no package path.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || !strings.Contains(fn, ".")
}

// runtimeName strips the package and any receiver: "runtime.(*mspan).sweep"
// is "sweep".
func runtimeName(fn string) string {
	fn = strings.TrimPrefix(fn, "runtime.")
	if i := strings.LastIndex(fn, ")."); i >= 0 && strings.HasPrefix(fn, "(") {
		fn = fn[i+2:]
	}
	return fn
}

func anyPrefix(names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) {
				return true
			}
		}
	}
	return false
}

// profile is the part of profile.proto the shares need.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocs   = 1
	sampleValues = 2

	locID   = 1
	locLine = 4
	lineFn  = 1

	fnID   = 1
	fnName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s sample
			err := walk(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case sampleLocs:
					s.locs = appendVarints(s.locs, v, sub)
				case sampleValues:
					for _, x := range appendVarints(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return walk(sub, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFn {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case fnID:
					id = v
				case fnName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcs {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("function name out of the string table")
		}
	}
	return p, nil
}

// appendVarints adds a repeated varint field's values, packed (msg) or not.
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// walk calls fn for each field of a protobuf message: varints arrive as v,
// length-delimited fields as msg (non-nil, possibly empty).
func walk(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if msg == nil {
				msg = []byte{}
			}
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
