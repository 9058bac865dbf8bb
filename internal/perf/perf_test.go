package perf

import (
	"runtime"
	"testing"
)

func TestCPUModel(t *testing.T) {
	info := []byte("processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\nflags\t\t: fpu\n\nprocessor\t: 1\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n")
	if got, want := cpuModel(info), "Intel(R) Xeon(R) CPU @ 2.20GHz"; got != want {
		t.Fatalf("cpuModel = %q, want %q", got, want)
	}
	if got := cpuModel([]byte("processor\t: 0\nCPU implementer\t: 0x41\n")); got != "" {
		t.Fatalf("cpuModel without a model name = %q, want empty", got)
	}
}

func TestNewReportStampsHost(t *testing.T) {
	r := NewReport("")
	if r.NumCPU != runtime.NumCPU() || r.NumCPU < 1 {
		t.Fatalf("NumCPU = %d, want %d", r.NumCPU, runtime.NumCPU())
	}
}
