package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestSmoke builds the benchmark and runs its -smoke mode from the
// repository root: all four workloads at small np, timed and traced, every
// layer driver, the seed-1 output check, and the metric names and units
// against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-smoke")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "perfbench: smoke ok") {
		t.Fatalf("smoke: %v\n%s", err, out)
	}
}

// TestBucketOf pins the host_share bucketing of representative stacks,
// innermost frame first.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*Kernel).dispatchMain"}, "sim"},
		{[]string{"repro/internal/mpi.(*Comm).Split.func1"}, "mpi"},
		{[]string{"repro/internal/fabric.(*Pipe).Reserve"}, "machine"},
		{[]string{"repro/internal/gpfs.(*lockPolicy).Acquire"}, "storage"},
		{[]string{"repro/internal/fault.(*Injector).Up"}, "recover"},
		{[]string{"repro/internal/exp.runCheckpoint"}, "other"},
		{[]string{"sort.Slice"}, "other"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend1", "repro/internal/sim.(*Proc).Sleep"}, "runtime.sched"},
		{[]string{"runtime.(*waitq).dequeue", "runtime.chanrecv", "repro/internal/sim.(*Proc).Sleep"}, "runtime.sched"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.(*mspan).sweep", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.step", "runtime.copystack", "runtime.newstack", "runtime.morestack", "repro/internal/mpi.(*Comm).Recv"}, "runtime.other"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/sim.(*Kernel).Go"}, "runtime.other"},
		{[]string{"aeshashbody", "runtime.mapaccess2", "repro/internal/mpi.(*Comm).Recv"}, "runtime.other"},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestRecordOmitsUnmeasured checks that a host field nobody measured is
// absent from a record rather than written as a zero value.
func TestRecordOmitsUnmeasured(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	r := &record{Workload: "x", Host: hostInfo{NProc: 2}}
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"git_describe", "cpu_model", "paper_bw_err"} {
		if strings.Contains(string(b), key) {
			t.Errorf("record has %q although it was not measured:\n%s", key, b)
		}
	}
}

// TestPaperBWErr checks paper_bw_err against the 16K bandwidths of the
// seed-1 reference (0.23, 4.10, 9.21, 3.34, 9.88 GB/s).
func TestPaperBWErr(t *testing.T) {
	var rows []exp.HeadlineRow
	for _, gbps := range []float64{0.23, 4.10, 9.21, 3.34, 9.88} {
		rows = append(rows, exp.HeadlineRow{NP: 16384, GBps: gbps})
	}
	got, ok := paperBWErr(rows)
	if !ok || math.Abs(got-0.1204) > 0.0005 {
		t.Fatalf("paperBWErr = %v, %v; want about 0.1204", got, ok)
	}
	rows[0].NP = 512
	if _, ok := paperBWErr(rows); ok {
		t.Fatal("paperBWErr compared np=512 rows with the 16K paper column")
	}
}
