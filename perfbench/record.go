package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one benchmark-side interval around a public call into a layer.
// Times are host seconds since the recording process started; Parent is 0
// for a top-level span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Proc   string  `json:"proc"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory for the run's record. A nil tracer records
// nothing, which is how timed runs keep tracing off.
type tracer struct {
	proc  string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(proc string) *tracer { return &tracer{proc: proc, t0: time.Now()} }

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: len(t.spans) + 1, Proc: t.proc, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[s.ID-1].End = time.Since(t.t0).Seconds()
	return err
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

// hostInfo stamps a record with the machine and toolchain it was measured
// on. A field that could not be determined is left out, never zeroed.
type hostInfo struct {
	CPUModel    string `json:"cpu_model,omitempty"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GitDescribe string `json:"git_describe,omitempty"`
}

func currentHost() hostInfo {
	return hostInfo{
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GitDescribe: gitDescribe(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitDescribe names the commit when the benchmark runs at the top of a git
// work tree. Elsewhere (an exported copy of the tree) it runs nothing, and
// git is never allowed to search above the working directory.
func gitDescribe() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// iterSample is one workload iteration as the parent saw it.
type iterSample struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Traced    bool    `json:"traced,omitempty"`
	Sims      int     `json:"sims"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"digest"`
}

// record is everything one run measured; it is written to
// .bench_build/perfbench/<workload>-seed<n>-trace<t>.json and condensed
// into the result line.
type record struct {
	Workload     string            `json:"workload"`
	NP           int               `json:"np"`
	Seed         uint64            `json:"seed"`
	HeldOutSeed  uint64            `json:"held_out_seed"`
	Trace        int               `json:"trace"`
	Seconds      float64           `json:"seconds"`
	Host         hostInfo          `json:"host"`
	Iterations   []iterSample      `json:"iterations"`
	SetupSamples []float64         `json:"setup_samples_s,omitempty"`
	PaperBWErr   *float64          `json:"paper_bw_err,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Unmeasured   []string          `json:"unmeasured,omitempty"`
	Problems     []string          `json:"problems,omitempty"`
	Spans        []span            `json:"spans,omitempty"`
}

func (r *record) attempted() (attempted, failed int) {
	for _, it := range r.Iterations {
		attempted += it.Sims
		failed += it.Failed
	}
	return attempted, failed
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *record) result() result {
	attempted, failed := r.attempted()
	return result{
		Correct:   failed == 0 && len(r.Problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.Metrics,
	}
}

func (r *record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
