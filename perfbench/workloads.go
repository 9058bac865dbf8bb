package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/fsys"
	"repro/internal/nekcem"
)

// testdata holds the seed-1 reference outputs (<workload>.np<N>.txt,
// captured with -print from the tree the benchmark was defined on) and the
// paper's Figure-5 column.
//
//go:embed testdata
var testdata embed.FS

// workload is one set of simulator inputs the benchmark runs. exec is the
// timed call into exp; check validates its result and renders the output
// that the seed-1 reference pins.
type workload struct {
	name    string
	why     string
	np      int          // processor count of the measured runs
	smokeNP int          // processor count of -smoke
	backend fsys.Backend // mounted by the set-up timing
	entry   string       // the exp function exec calls, naming its span
	exec    func(o exp.Options, np int) (any, error)
	check   func(res any, np int) *outcome
}

// outcome is a checked workload iteration.
type outcome struct {
	sims     int // simulations attempted
	failed   int // simulations that errored or failed the check
	problems []string
	text     string // the simulated numbers the workload's tables print
	paperErr *float64
	events   uint64             // summed Run.Events; 0 when exp exposes none
	counts   map[string]float64 // exact per-workload counts (per-layer metrics)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = []*workload{
	{
		name:    "fig5-16k",
		why:     "the paper's Figure 5-7 headline at 16K: kernel dispatch, goroutine handoff and MPI collectives dominate host time",
		np:      16384,
		smokeNP: 512,
		backend: "gpfs",
		entry:   "exp.RunAll",
		exec: func(o exp.Options, np int) (any, error) {
			return exp.RunAll(o)
		},
		check: func(res any, np int) *outcome {
			return checkHeadline(res.([]*exp.Run), np, []int{0, 1, 2, 3, 4})
		},
	},
	{
		name:    "rbio-64k",
		why:     "one rbIO nf=ng step at 65,536 ranks: point-to-point fan-in, per-rank state and calendar size; the memory workload",
		np:      65536,
		smokeNP: 1024,
		backend: "gpfs",
		entry:   "exp.RunSet",
		exec: func(o exp.Options, np int) (any, error) {
			return exp.RunSet(o, []exp.Job{{NP: np, Strategy: exp.Approaches(np)[4]}})
		},
		check: func(res any, np int) *outcome {
			return checkHeadline(res.([]*exp.Run), np, []int{4})
		},
	},
	{
		name:    "recovery-1k",
		why:     "many short lifecycle simulations at 1,024 ranks: restore reads, manifest scans, fault kills and storage retry",
		np:      1024,
		smokeNP: 256,
		backend: "gpfs",
		entry:   "exp.RecoveryStudy",
		exec: func(o exp.Options, np int) (any, error) {
			return exp.RecoveryStudy(o, np, 6, 120, 12)
		},
		check: func(res any, np int) *outcome {
			return checkRecovery(res.([]exp.RecoveryRow))
		},
	},
	{
		name:    "bbfleet-2k",
		why:     "the burst-buffer fleet sweep at 2,048 ranks: bbuf striping, fifo/deadline drain scheduling and async flushes",
		np:      2048,
		smokeNP: 512,
		backend: "bbuf",
		entry:   "exp.BBSize",
		exec: func(o exp.Options, np int) (any, error) {
			return exp.BBSize(o, np, 6)
		},
		check: func(res any, np int) *outcome {
			return checkBBSize(res.(*exp.BBSizeResult), np)
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// options are the simulator settings every workload runs with: the serial
// kernel, a one-worker experiment pool, the default noise model, and the
// benchmark's seed.
func options(seed uint64, np int, extra ...exp.Option) exp.Options {
	opts := append([]exp.Option{exp.Seed(seed), exp.NPs(np), exp.Parallel(1), exp.Shards(0)}, extra...)
	return exp.New(opts...)
}

// simulate runs one iteration: the exp call alone is timed (wall seconds),
// then its result is checked, and at seed 1 compared with the reference.
// An exp call that errors abandons the simulations it had not started, so
// it counts as one failed operation.
func (w *workload) simulate(tr *tracer, seed uint64, np int, extra ...exp.Option) (*outcome, float64) {
	var res any
	var err error
	var wall float64
	tr.do(w.entry, func() error {
		t0 := time.Now()
		res, err = w.exec(options(seed, np, extra...), np)
		wall = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		out := &outcome{sims: 1, failed: 1}
		out.problem("%s: %v", w.name, err)
		return out, wall
	}
	out := w.check(res, np)
	if seed == 1 {
		w.compareReference(out, np)
	}
	return out, wall
}

// compareReference pins every simulated number the workload prints at
// seed 1. A mismatch counts the whole iteration as failed.
func (w *workload) compareReference(out *outcome, np int) {
	path := fmt.Sprintf("testdata/%s.np%d.txt", w.name, np)
	want, err := testdata.ReadFile(path)
	if err != nil {
		return // no reference at this processor count
	}
	if got := out.text; got != string(want) {
		out.failed = out.sims
		out.problem("%s: output differs from %s at line %d", w.name, path, firstDiffLine(got, string(want)))
	}
}

func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// digest fingerprints an iteration's output so two same-seed runs can be
// compared across processes.
func (o *outcome) digest() string {
	sum := sha256.Sum256([]byte(o.text))
	return hex.EncodeToString(sum[:8])
}

// payload is the checkpoint size every checkpoint run must write:
// 41,070,624,768 B at 16K, 164,282,499,072 B at 64K.
func payload(np int) int64 {
	return nekcem.PaperMesh(np).CheckpointBytesFactor(nekcem.PaperPayloadFactor)
}

// checkHeadline validates Figure 5-7 runs of the given approach columns
// and renders the three figures' tables exactly as iobench prints them.
func checkHeadline(runs []*exp.Run, np int, approaches []int) *outcome {
	out := &outcome{sims: len(approaches)}
	if len(runs) != len(approaches) {
		out.failed = out.sims
		out.problem("headline: %d runs for %d approaches", len(runs), len(approaches))
		return out
	}
	want := payload(np)
	var rows []exp.HeadlineRow
	for i, r := range runs {
		if r.Agg == nil || r.Result == nil || r.S != want {
			out.failed++
			out.problem("headline %s: wrote %d B, want %d", exp.ApproachLabels[approaches[i]], r.S, want)
			continue
		}
		out.events += r.Events
		step := r.Agg.StepTime()
		rows = append(rows, exp.HeadlineRow{
			NP: r.NP, Approach: exp.ApproachLabels[approaches[i]], S: r.S,
			StepSec: step, GBps: exp.GB(r.Agg.Bandwidth()),
			Ratio: step / r.Result.ComputeStep, WorkerSec: r.Agg.MaxWorker,
		})
	}
	out.text = "== Figure 5: write bandwidth ==\n" + exp.Fig5Table(rows) +
		"\n== Figure 6: overall time per checkpoint step ==\n" + exp.Fig6Table(rows) +
		"\n== Figure 7: checkpoint/computation ratio ==\n" + exp.Fig7Table(rows)
	if len(approaches) == len(ckpt.HeadlineNames) && out.failed == 0 {
		if e, ok := paperBWErr(rows); ok {
			out.paperErr = &e
		}
	}
	return out
}

// paperColumn is testdata/paper_fig5.json: the paper's Figure-5 bandwidths
// as EXPERIMENTS.md reads them off the figure.
type paperColumn struct {
	Source string             `json:"source"`
	NP     int                `json:"np"`
	GBps   map[string]float64 `json:"gbps"` // keyed by ckpt.HeadlineNames
}

// paperBWErr is the mean |log10(simulated/paper)| over the five headline
// bandwidths, when the rows are at the paper column's processor count.
func paperBWErr(rows []exp.HeadlineRow) (float64, bool) {
	raw, err := testdata.ReadFile("testdata/paper_fig5.json")
	if err != nil {
		return 0, false
	}
	var pc paperColumn
	if err := json.Unmarshal(raw, &pc); err != nil || len(rows) != len(ckpt.HeadlineNames) || rows[0].NP != pc.NP {
		return 0, false
	}
	sum := 0.0
	for i, name := range ckpt.HeadlineNames {
		paper, ok := pc.GBps[name]
		if !ok || paper <= 0 || rows[i].GBps <= 0 {
			return 0, false
		}
		sum += math.Abs(math.Log10(rows[i].GBps / paper))
	}
	return sum / float64(len(rows)), true
}

// checkRecovery validates the recovery study. A fault-free arm must see no
// kill, rollback or torn epoch; in a faulted arm every rollback and every
// torn epoch must trace back to a classified kill, so no kill went silent.
func checkRecovery(rows []exp.RecoveryRow) *outcome {
	out := &outcome{sims: len(rows), counts: map[string]float64{}}
	for _, r := range rows {
		kills := r.Kills.Kills()
		bad := ""
		switch {
		case r.MTBFHours == 0 && (kills != 0 || r.Rollbacks != 0 || r.Torn != 0):
			bad = "fault-free arm saw faults"
		case r.Rollbacks > 0 && kills == 0:
			bad = "rollback without a classified kill"
		case r.Torn > 0 && r.Kills.MidEpochTorn == 0:
			bad = "torn epoch without a mid-epoch torn kill"
		case r.Makespan <= 0 || math.IsNaN(r.Makespan):
			bad = "no makespan"
		}
		if bad != "" {
			out.failed++
			out.problem("recovery %s mtbf=%g: %s", r.Strategy, r.MTBFHours, bad)
		}
		out.counts["recover.rollbacks"] += float64(r.Rollbacks)
		out.counts["recover.torn"] += float64(r.Torn)
		out.counts["fault.kills"] += float64(kills)
	}
	out.text = "== Extension: closed-loop recovery ==\n" + exp.RecoveryTable(rows)
	return out
}

// checkBBSize validates the burst-buffer sweep: every fault-free cell must
// have made the full payload durable (bytes = durable GB/s x durable time).
func checkBBSize(r *exp.BBSizeResult, np int) *outcome {
	out := &outcome{sims: len(r.Rows) + len(r.Faulted), counts: map[string]float64{}}
	want := float64(payload(np))
	for _, row := range r.Rows {
		got := row.DurableGBps * 1e9 * row.DurableSec
		if math.Abs(got-want) > 1e-9*want {
			out.failed++
			out.problem("bbsize %s fleet=%d drain=%s: %.0f B durable, want %.0f", row.Strategy, row.Fleet, row.Drain, got, want)
		}
		out.counts["bbuf.spill_bytes"] += float64(row.SpillBytes)
		out.counts["bbuf.backlog_peak_bytes"] = math.Max(out.counts["bbuf.backlog_peak_bytes"], float64(row.PeakBacklog))
	}
	out.text = "== Extension: burst-buffer fleet sizing ==\n" + r.Table() +
		"\n== bbsize: faulted arm (accelerated MTBF) ==\n" + r.FaultTable()
	return out
}
