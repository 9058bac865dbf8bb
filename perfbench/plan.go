package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// plan is one benchmark run: a workload at a seed and scale, measured for
// a number of seconds, with the layer drivers at the given scale.
type plan struct {
	w       *workload
	seed    uint64
	np      int
	seconds float64
	layers  string // child kind of the layer drivers: "layers" or "layers-smoke"
}

// usage is a finished child process's resource use.
type usage struct {
	cpuS      float64
	peakRSSMB float64
}

type childError struct {
	kind   string
	err    error
	stderr string
}

func (e *childError) Error() string { return fmt.Sprintf("child %s: %v", e.kind, e.err) }

// child runs one piece of work in a fresh process of this binary, decodes
// its result line into v, and returns the process's CPU time and peak RSS.
// The process is waited for on every path; the context kills it first when
// the run's budget is spent.
func (p plan) child(ctx context.Context, kind string, v any) (usage, error) {
	self, err := os.Executable()
	if err != nil {
		return usage{}, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", kind, "-workload", p.w.name,
		"-seed", strconv.FormatUint(p.seed, 10), "-np", strconv.Itoa(p.np))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return usage{}, &childError{kind: kind, err: err, stderr: stderr.String()}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return usage{}, &childError{kind: kind, err: fmt.Errorf("bad result line: %w", err), stderr: stderr.String()}
	}
	u := usage{cpuS: (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.peakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return u, nil
}

func (p plan) newRecord(trace int) *record {
	return &record{
		Workload: p.w.name, NP: p.np, Seed: p.seed, HeldOutSeed: heldOutSeed,
		Trace: trace, Seconds: p.seconds, Host: currentHost(),
	}
}

// add folds an iteration into the record.
func (r *record) add(it *iterResult, u usage, traced bool) {
	r.Iterations = append(r.Iterations, iterSample{
		WallS: it.WallS, CPUS: u.cpuS, PeakRSSMB: u.peakRSSMB, Traced: traced,
		Sims: it.Sims, Failed: it.Failed, Digest: it.Digest,
	})
	r.Problems = append(r.Problems, it.Problems...)
	if it.PaperBWErr != nil {
		r.PaperBWErr = it.PaperBWErr
	}
}

// checkAgreement requires every iteration of the run, all at one seed, to
// have produced identical output.
func (r *record) checkAgreement() {
	for _, it := range r.Iterations[1:] {
		if it.Digest != r.Iterations[0].Digest {
			r.Problems = append(r.Problems, "two same-seed iterations disagree")
			return
		}
	}
}

// timed measures the end-to-end metrics: the set-up samples first, then
// workload iterations, one process each, for as long as another iteration
// still fits in the run's seconds (at least one).
func (p plan) timed(ctx context.Context) (*record, error) {
	rec := p.newRecord(0)
	var st setupResult
	if _, err := p.child(ctx, "setup", &st); err != nil {
		return nil, err
	}
	rec.SetupSamples = st.Samples
	start := time.Now()
	for n := 1; ; n++ {
		var it iterResult
		u, err := p.child(ctx, "iter", &it)
		if err != nil {
			return nil, err
		}
		rec.add(&it, u, false)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(n) > p.seconds {
			break
		}
	}
	rec.checkAgreement()
	var wall, cpu, rss []float64
	for _, it := range rec.Iterations {
		wall = append(wall, it.WallS)
		cpu = append(cpu, it.CPUS)
		rss = append(rss, it.PeakRSSMB)
	}
	var err error
	rec.Metrics, err = metricSet(endToEnd, map[string]float64{
		"wall_s":      median(wall),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"setup_s":     median(st.Samples),
	})
	return rec, err
}

// traced measures the per-layer metrics: one untraced iteration, one
// traced iteration (exp.Trace, spans, CPU profile), and the layer drivers.
// The two iterations share a seed, so their outputs must agree.
func (p plan) traced(ctx context.Context) (*record, error) {
	rec := p.newRecord(1)
	var base, tr iterResult
	u, err := p.child(ctx, "iter", &base)
	if err != nil {
		return nil, err
	}
	rec.add(&base, u, false)
	if u, err = p.child(ctx, "traced", &tr); err != nil {
		return nil, err
	}
	rec.add(&tr, u, true)
	rec.checkAgreement()
	var lr layerResult
	if _, err := p.child(ctx, p.layers, &lr); err != nil {
		return nil, err
	}
	values := map[string]float64{}
	for k, v := range tr.Layer {
		values[k] = v
	}
	for k, v := range lr.Metrics {
		values[k] = v
	}
	values["sim.ns_per_event"] = 0
	if ev := values["sim.events"]; ev > 0 {
		values["sim.ns_per_event"] = base.WallS * 1e9 / ev
	}
	values["trace.overhead_frac"] = tr.WallS/base.WallS - 1
	rec.Unmeasured = tr.Unmeasured
	rec.Spans = append(tr.Spans, lr.Spans...)
	rec.Metrics, err = metricSet(perLayer, values)
	return rec, err
}
