// Package perf holds the performance-measurement plumbing shared by the
// iobench binary and the repository benchmarks: a process-wide GC tuning
// knob for simulation workloads, and a machine-readable benchmark report
// (BENCH_*.json) so performance claims are recorded as data, not prose.
package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// TuneGC relaxes the garbage collector for simulation workloads. A 64K-rank
// simulation holds gigabytes of live, mostly-static structure (goroutine
// stacks, rank state, pooled events); the default GOGC=100 re-marks all of it
// on every modest allocation burst, and each cycle also shrinks tens of
// thousands of goroutine stacks that the next phase regrows. Raising the
// target measurably cuts wall-clock time (~6% end to end at 64K ranks) at the
// cost of proportionally more heap headroom. An explicit GOGC environment
// setting wins: callers who asked for a specific collector behavior keep it.
func TuneGC() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(250)
	}
}

// Benchmark is one measurement in a report. NsPerOp is the wall-clock cost of
// the benchmarked operation; EventsPerSec, when set, is the simulator's event
// throughput during it (the scale-free number to compare machines by).
type Benchmark struct {
	Name         string             `json:"name"`
	NsPerOp      float64            `json:"ns_per_op"`
	EventsPerSec float64            `json:"events_per_sec,omitempty"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

// Report is the contents of a BENCH_*.json file. CPU and NumCPU name the
// host, so wall-clock numbers are only compared between reports that agree
// on them; CPU is omitted where the model cannot be read.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu"`
	When       string      `json:"when"`
	Notes      string      `json:"notes,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// NewReport returns a report stamped with the current environment.
func NewReport(notes string) *Report {
	r := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		When:       time.Now().UTC().Format(time.RFC3339),
		Notes:      notes,
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		r.CPU = cpuModel(info)
	}
	return r
}

// cpuModel returns the first "model name" in a /proc/cpuinfo listing, or ""
// when there is none.
func cpuModel(cpuinfo []byte) string {
	for _, line := range bytes.Split(cpuinfo, []byte("\n")) {
		key, val, ok := bytes.Cut(line, []byte(":"))
		if ok && string(bytes.TrimSpace(key)) == "model name" {
			return string(bytes.TrimSpace(val))
		}
	}
	return ""
}

// Add appends a measurement.
func (r *Report) Add(b Benchmark) { r.Benchmarks = append(r.Benchmarks, b) }

// WriteJSON writes the report to path, indented for humans, trailing newline
// for tools.
func (r *Report) WriteJSON(path string) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
