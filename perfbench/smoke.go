package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke mode checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke is the benchmark's own test: every workload at its small
// processor count, a timed run (set-up samples and one iteration) and a
// traced run (untraced and traced iterations and every layer driver at
// small scale), each checked for correctness at seed 1 against the small
// reference, and every metric checked by name and unit against
// BENCHMARK.json in the working directory.
func runSmoke() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, perfbench has %q", i, w.Name, workloads[i].name)
		}
	}
	if err := sameMetrics("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := sameMetrics("per_layer", bf.PerLayer, perLayer); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for _, w := range workloads {
		if _, err := testdata.ReadFile(fmt.Sprintf("testdata/%s.np%d.txt", w.name, w.smokeNP)); err != nil {
			return fmt.Errorf("%s: no smoke reference: %w", w.name, err)
		}
		p := plan{w: w, seed: 1, np: w.smokeNP, layers: "layers-smoke"}
		for _, trace := range []int{0, 1} {
			t0 := time.Now()
			var rec *record
			if trace == 0 {
				rec, err = p.timed(ctx)
			} else {
				rec, err = p.traced(ctx)
			}
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			res := rec.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				return fmt.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					return fmt.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, d.name, got, d.unit)
				}
			}
			fmt.Printf("smoke %-12s np=%-5d trace=%d ok: %d sims in %.1fs\n", w.name, w.smokeNP, trace, res.Attempted, time.Since(t0).Seconds())
		}
	}
	return nil
}

func sameMetrics(list string, got []benchmarkMetric, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, perfbench reports %d", list, len(got), len(want))
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), perfbench reports %s (%s)", list, i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
	}
	return nil
}
