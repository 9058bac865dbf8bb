package main

import (
	"fmt"

	"repro/internal/trace"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of a timed run (-trace 0): what a user of the
// simulator waits for and pays in host resources.
var endToEnd = []metricDef{
	{"wall_s", "s"},       // median host seconds of one workload iteration's exp call
	{"cpu_s", "s"},        // median user+sys CPU of the iteration's process, GC included
	{"peak_rss_mb", "MB"}, // median peak RSS of the iteration's process
	{"setup_s", "s"},      // median machine.New + fsys.Mount + mpi.NewWorld + nekcem.Launch
}

// hostModules are the buckets of host_share.*: the simulator's layers,
// the Go runtime split three ways, and everything else (exp, trace, the
// standard library).
var hostModules = []string{
	"sim", "mpi", "machine", "storage", "mpiio", "ckpt", "nekcem", "recover",
	"runtime.sched", "runtime.gc", "runtime.other", "other",
}

// perLayer are the metrics of a traced run (-trace 1). Every name is
// reported on every workload; counts a workload does not produce are 0,
// and counts exp exposes no way to observe are 0 and listed under
// "unmeasured" in the run's record.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.woken", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.wave_ns_per_event", "ns"},
		{"sim.handoff_ns", "ns"},
		{"mpi.allgather_s", "s"},
		{"mpi.allgather_events", "count"},
		{"mpi.allgather_woken", "count"},
		{"mpi.split_s", "s"},
		{"mpi.fanin_s", "s"},
		{"machine.new_s", "s"},
		{"nekcem.launch_s", "s"},
		{"machine.transfer_ns", "ns"},
		{"storage.write_ns.gpfs", "ns"},
		{"storage.write_ns.pvfs", "ns"},
		{"storage.write_ns.bbuf", "ns"},
		{"storage.read_ns.gpfs", "ns"},
		{"mpiio.collective_write_s", "s"},
	}
	for _, name := range ckptStepNames {
		defs = append(defs, metricDef{"ckpt.step_s." + name, "s"})
	}
	defs = append(defs,
		metricDef{"recover.scan_ns", "ns"},
		metricDef{"recover.rollbacks", "count"},
		metricDef{"recover.torn", "count"},
		metricDef{"fault.kills", "count"},
		metricDef{"bbuf.drain_s.fifo", "s"},
		metricDef{"bbuf.drain_s.deadline", "s"},
		metricDef{"bbuf.spill_bytes", "B"},
		metricDef{"bbuf.backlog_peak_bytes", "B"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.mallocs", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_cpu_frac", "frac"},
	)
	for _, m := range hostModules {
		defs = append(defs, metricDef{"host_share." + m, "frac"})
	}
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		defs = append(defs, metricDef{"trace.sim_s." + l.String(), "s"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "frac"})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills defs from values; a name missing from values is a bug in
// the benchmark, not a measurement, so it is an error.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
