package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// checkGolden compares got against the committed golden file, rewriting it
// when UPDATE_GOLDEN is set. The fscompare goldens were generated before the
// storage-core refactor, so they enforce the refactor's bit-identical claim
// in CI rather than by eyeball.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFSComparisonGoldenGPFSPVFS pins the gpfs and pvfs arms of the
// fscompare table byte for byte. The golden predates the storage-core
// refactor: any change to these simulated numbers is a fidelity regression,
// not a formatting nit. (It deliberately runs the two-backend subset — the
// table's column widths depend on the rows present, so subsetting the
// three-way table would not reproduce the pre-refactor bytes.)
func TestFSComparisonGoldenGPFSPVFS(t *testing.T) {
	rows, err := FSComparisonOn(Options{Seed: 3, NPs: []int{2048}}, 2048, "gpfs", "pvfs")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fscompare_np2048_seed3.golden", FSComparisonTable(rows))
}

// TestFSComparisonGoldenThreeWay pins the full backend comparison — the
// burst-buffer arm included — so the bbuf policy's numbers are regression-
// checked the same way the original backends' are.
func TestFSComparisonGoldenThreeWay(t *testing.T) {
	rows, err := FSComparison(Options{Seed: 3, NPs: []int{2048}}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fscompare3_np2048_seed3.golden", FSComparisonTable(rows))
}

// TestDrainOverlapGolden pins the drain-overlap experiment's table.
func TestDrainOverlapGolden(t *testing.T) {
	rows, err := DrainOverlap(Options{Seed: 3, NPs: []int{2048}}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "drainoverlap_np2048_seed3.golden", DrainOverlapTable(rows))
}

// TestFaultSweepGolden pins the survivability sweep byte for byte: the
// sampled fault schedules, the retry/failover arithmetic, the fault-aware
// strategy paths and the restart attempts all feed these numbers, so any
// drift in them is a behavior change, not noise.
func TestFaultSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("np-2048 fault sweep in -short mode")
	}
	rows, err := FaultSweep(Options{Seed: 3, NPs: []int{2048}}, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faultsweep_np2048_seed3.golden", FaultTable(rows))
}

// TestMakespanGolden pins the expected-makespan study (measured C and R
// pushed through the Young/Daly model).
func TestMakespanGolden(t *testing.T) {
	rows, err := Makespan(Options{Seed: 3, NPs: []int{2048}}, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "makespan_np2048_seed3.golden", MakespanTable(rows))
}

// TestExperimentGoldens pins one small case of every experiment whose
// simulation is composed outside the headline runner, so a change to how
// a simulation is built (machine, storage, faults, manifests, tenants)
// shows up here byte for byte.
func TestExperimentGoldens(t *testing.T) {
	o := Options{Seed: 3, NPs: []int{512}}
	bb := o
	bb.FS, bb.BBNodes, bb.BBDrainBW, bb.Drain = "bbuf", 2, 0.25e9, "deadline"
	cases := []struct {
		golden string
		run    func() (string, error)
	}{
		{"recovery_np256_seed3.golden", func() (string, error) {
			rows, err := RecoveryStudy(o, 256, 6, 24, 4)
			if err != nil {
				return "", err
			}
			return RecoveryTable(rows), nil
		}},
		{"asyncfrontier_np256_seed3.golden", func() (string, error) {
			rows, err := AsyncFrontier(o, 256, 6, 2)
			if err != nil {
				return "", err
			}
			return AsyncFrontierTable(rows), nil
		}},
		{"recovery_bbuf_np256_seed3.golden", func() (string, error) {
			rows, err := RecoveryStudy(bb, 256, 6, 24, 4)
			if err != nil {
				return "", err
			}
			return RecoveryTable(rows), nil
		}},
		{"asyncfrontier_bbuf_np256_seed3.golden", func() (string, error) {
			rows, err := AsyncFrontier(bb, 256, 6, 2)
			if err != nil {
				return "", err
			}
			return AsyncFrontierTable(rows), nil
		}},
		{"ablations_np512_seed3.golden", func() (string, error) {
			var all []AblationRow
			for _, f := range []func(Options, int) ([]AblationRow, error){
				AblateAlignment, AblateWriterBuffer, AblateGroupRatio,
				AblateIONCache, AblateNoise, AblateBlockSize,
			} {
				rows, err := f(o, 512)
				if err != nil {
					return "", err
				}
				all = append(all, rows...)
			}
			return AblationTable(all), nil
		}},
		{"eq1_np512_seed3.golden", func() (string, error) {
			r, err := Eq1(o, 512, 20)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"multilevel_np512_seed3.golden", func() (string, error) {
			rows, err := MultiLevelStudy(o, 512)
			if err != nil {
				return "", err
			}
			return MultiLevelTable(rows), nil
		}},
		{"meshread_np512_seed3.golden", func() (string, error) {
			rows, err := MeshRead(o, MeshReadRow{E: 136 * 1024, NP: 512}, MeshReadRow{E: 546 * 1024, NP: 512})
			if err != nil {
				return "", err
			}
			return MeshReadTable(rows), nil
		}},
		{"ckptstorm_np256_nt2_seed3.golden", func() (string, error) {
			r, err := CkptStorm(o, 256, 2)
			if err != nil {
				return "", err
			}
			return r.Table() + r.SummaryTable(), nil
		}},
		{"restartstorm_np256_nt2_seed3.golden", func() (string, error) {
			return restartStormText(o)
		}},
		{"restartstorm_bbuf_np256_nt2_seed3.golden", func() (string, error) {
			return restartStormText(bb)
		}},
		{"bbsize_np512_seed3.golden", func() (string, error) {
			r, err := BBSize(o, 512, 6)
			if err != nil {
				return "", err
			}
			return r.Table() + r.FaultTable(), nil
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.golden, got)
		})
	}
}

func restartStormText(o Options) (string, error) {
	r, err := RestartStorm(o, 256, 2)
	if err != nil {
		return "", err
	}
	return r.Table() + fmt.Sprintf("penalty %.4f makespan %.4f fails %d restores %d torn %d scan %d B\n",
		r.StormPenalty, r.Makespan, r.FaultCounts.Fails, r.FaultCounts.Restores, r.Torn, r.ScanBytes), nil
}
