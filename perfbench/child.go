package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// iterResult is what an iteration child reports.
type iterResult struct {
	WallS      float64            `json:"wall_s"`
	Sims       int                `json:"sims"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	Problems   []string           `json:"problems,omitempty"`
	PaperBWErr *float64           `json:"paper_bw_err,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Unmeasured []string           `json:"unmeasured,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// setupResult is what the set-up child reports.
type setupResult struct {
	Samples []float64 `json:"samples_s"`
}

// layerResult is what the layer-driver child reports.
type layerResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

func runChild(kind string, w *workload, seed uint64, np int) (any, error) {
	switch kind {
	case "iter":
		out, wall := w.simulate(nil, seed, np)
		return iterOf(out, wall), nil
	case "traced":
		return tracedIter(w, seed, np)
	case "setup":
		return setupSamples(w, seed, np)
	case "layers":
		return runLayers(fullLayers, seed)
	case "layers-smoke":
		return runLayers(smokeLayers, seed)
	}
	return nil, fmt.Errorf("unknown child kind %q", kind)
}

func iterOf(out *outcome, wall float64) *iterResult {
	return &iterResult{
		WallS: wall, Sims: out.sims, Failed: out.failed, Digest: out.digest(),
		Problems: out.problems, PaperBWErr: out.paperErr,
	}
}

// goCounters samples the runtime's allocation, GC and CPU-class counters.
type goCounters struct {
	ms      runtime.MemStats
	samples []metrics.Sample
}

func readGoCounters() goCounters {
	g := goCounters{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
	runtime.ReadMemStats(&g.ms)
	metrics.Read(g.samples)
	return g
}

func (g goCounters) cpu(i int) float64 {
	if g.samples[i].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return g.samples[i].Value.Float64()
}

// tracedIter runs one iteration with exp.Trace attached and a CPU profile
// running, and derives the workload-side per-layer metrics.
func tracedIter(w *workload, seed uint64, np int) (*iterResult, error) {
	tr := newTracer("traced")
	tc := &exp.TraceCollector{MaxEvents: 1} // aggregates only; no timeline
	var prof bytes.Buffer
	before := readGoCounters()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	out, wall := w.simulate(tr, seed, np, exp.Trace(tc))
	pprof.StopCPUProfile()
	after := readGoCounters()

	res := iterOf(out, wall)
	res.Spans = tr.recorded()
	layer := map[string]float64{}
	res.Layer = layer

	entries := tc.Entries()
	var events, woken float64
	simS := make([]float64, trace.NumLayers)
	for _, e := range entries {
		for _, c := range e.Rec.Snapshot("", e.Makespan).Counters {
			switch c.Name {
			case "kernel.events":
				events += float64(c.Value)
			case "kernel.woken":
				woken += float64(c.Value)
			}
		}
		for l := trace.Layer(0); l < trace.NumLayers; l++ {
			simS[l] += e.Rec.LayerTime(l)
		}
	}
	if out.events != 0 && uint64(events) != out.events {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("trace counted %.0f kernel events, runs report %d", events, out.events))
	}
	layer["sim.events"] = events
	layer["sim.woken"] = woken
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		layer["trace.sim_s."+l.String()] = simS[l]
	}
	if len(entries) == 0 {
		// The experiment does not accept exp.Trace, so its kernels are out
		// of reach from outside: report zeros and say so.
		res.Unmeasured = append(res.Unmeasured, "sim.events", "sim.woken", "sim.ns_per_event")
		for l := trace.Layer(0); l < trace.NumLayers; l++ {
			res.Unmeasured = append(res.Unmeasured, "trace.sim_s."+l.String())
		}
	}
	for _, name := range []string{"recover.rollbacks", "recover.torn", "fault.kills", "bbuf.spill_bytes", "bbuf.backlog_peak_bytes"} {
		layer[name] = out.counts[name]
	}

	layer["go.alloc_mb"] = float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / 1e6
	layer["go.mallocs"] = float64(after.ms.Mallocs - before.ms.Mallocs)
	layer["go.gc_cycles"] = float64(after.ms.NumGC - before.ms.NumGC)
	used := (after.cpu(1) - before.cpu(1)) - (after.cpu(2) - before.cpu(2))
	if used > 0 {
		layer["go.gc_cpu_frac"] = (after.cpu(0) - before.cpu(0)) / used
	} else {
		layer["go.gc_cpu_frac"] = 0
	}

	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, m := range hostModules {
		layer["host_share."+m] = shares[m]
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		_ = os.WriteFile(path, prof.Bytes(), 0o644) // a convenience copy for go tool pprof
	}
	return res, nil
}

// setupTimes is one set-up of an np-rank simulation, timed call by call.
type setupTimes struct {
	machine, mount, world, launch float64
}

func (s setupTimes) total() float64 { return s.machine + s.mount + s.world + s.launch }

// setUp builds what every checkpoint simulation builds before its first
// event — machine.New, fsys.Mount, mpi.NewWorld, nekcem.Launch — timing
// each call. The launched ranks take no steps, so draining the kernel
// afterwards (untimed) ends them and frees the world.
func setUp(tr *tracer, backend fsys.Backend, seed uint64, np int) (setupTimes, error) {
	var st setupTimes
	timed := func(name string, dst *float64, fn func() error) error {
		return tr.do(name, func() error {
			t0 := time.Now()
			err := fn()
			*dst = time.Since(t0).Seconds()
			return err
		})
	}
	var k *sim.Kernel
	var m *machine.Machine
	var err error
	if err := timed("machine.New", &st.machine, func() error {
		k, m, err = newMachine(np, seed)
		return err
	}); err != nil {
		return st, err
	}
	var fs fsys.System
	if err := timed("fsys.Mount", &st.mount, func() error {
		fs, err = fsys.Mount(backend, m, fsys.MountOptions{})
		return err
	}); err != nil {
		return st, err
	}
	var w *mpi.World
	timed("mpi.NewWorld", &st.world, func() error {
		w = mpi.NewWorld(m, mpi.DefaultConfig())
		return nil
	})
	var pe *nekcem.Pending
	if err := timed("nekcem.Launch", &st.launch, func() error {
		pe, err = nekcem.Launch(w, fs, nekcem.RunConfig{
			Mesh: nekcem.PaperMesh(np), Dir: "ckpt", Synthetic: true, SkipPresetup: true,
			PayloadFactor: nekcem.PaperPayloadFactor, Compute: nekcem.DefaultComputeModel(),
		})
		return err
	}); err != nil {
		return st, err
	}
	_, err = pe.Finish(k.Run())
	return st, err
}

// setupSamples times the workload's largest set-up repeatedly in one
// process, each time from a freshly collected heap, and reports every
// sample after the first two (which pay for growing a cold heap once per
// process); the parent takes the median. Small set-ups repeat until two
// seconds are spent, so their median rests on hundreds of samples.
func setupSamples(w *workload, seed uint64, np int) (*setupResult, error) {
	const warmups, minSamples, maxReps = 2, 7, 400
	res := &setupResult{}
	var spent time.Duration
	for i := 0; i < maxReps && (i < warmups+minSamples || spent < 2*time.Second); i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := setUp(nil, w.backend, seed, np)
		if err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		if i >= warmups {
			res.Samples = append(res.Samples, st.total())
		}
	}
	return res, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
