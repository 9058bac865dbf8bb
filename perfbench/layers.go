package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// layerScale sizes the layer drivers. Each driver times calls into one
// layer's public API from here, so the numbers come from outside the
// layer and need no instrumentation inside it.
type layerScale struct {
	waveWidth int // same-time events per collective wave
	waves     int
	sleeps    int // Proc.Sleep round trips
	mpiNP     int // ranks of the collective and fan-in drivers (and the torus)
	bigNP     int // ranks of the machine.New / nekcem.Launch driver
	ioNP      int // ranks of the storage, MPI-IO, checkpoint and recover drivers
	transfers int // Interconnect.Transfer calls
	writes    int // 4 MiB WriteAt / ReadAt calls per backend
	epochs    int // manifest epochs the recover driver builds and scans
	reps      int // repetitions of each sub-second driver; the median is kept
}

var (
	fullLayers  = layerScale{16384, 32, 200000, 16384, 65536, 2048, 200000, 1024, 12, 3}
	smokeLayers = layerScale{1024, 4, 2000, 512, 1024, 256, 2000, 16, 3, 1}
)

// ckptStepNames are the strategies of the ckpt.step_s.* drivers: the five
// headline arms and the async strategy.
var ckptStepNames = append(append([]string(nil), ckpt.HeadlineNames...), "async")

const mib = 1 << 20

// runLayers runs every layer driver, each inside a span, and returns the
// per-layer metrics they measure.
func runLayers(sc layerScale, seed uint64) (*layerResult, error) {
	tr := newTracer("layers")
	m := map[string]float64{}
	// repeat runs a driver sc.reps times, each from a collected heap, and
	// keeps the median of every value it reports.
	repeat := func(name string, fn func() (map[string]float64, error)) error {
		return tr.do(name, func() error {
			samples := map[string][]float64{}
			for i := 0; i < sc.reps; i++ {
				runtime.GC()
				vals, err := fn()
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				for k, v := range vals {
					samples[k] = append(samples[k], v)
				}
			}
			for k, v := range samples {
				m[k] = median(v)
			}
			return nil
		})
	}
	drivers := []struct {
		name string
		fn   func() (map[string]float64, error)
	}{
		{"sim.wave", func() (map[string]float64, error) {
			return map[string]float64{"sim.wave_ns_per_event": waveNs(sc.waveWidth, sc.waves)}, nil
		}},
		{"sim.handoff", func() (map[string]float64, error) {
			return map[string]float64{"sim.handoff_ns": handoffNs(sc.sleeps)}, nil
		}},
		{"mpi.allgather", func() (map[string]float64, error) {
			var vals map[string]float64
			err := mpiDriver(sc.mpiNP, seed, func(c *mpi.Comm, r *mpi.Rank) {
				c.AllgatherInt64(r, int64(r.ID()))
			}, func(k *sim.Kernel, s float64) {
				vals = map[string]float64{
					"mpi.allgather_s":      s,
					"mpi.allgather_events": float64(k.Events()),
					"mpi.allgather_woken":  float64(k.Woken()),
				}
			})
			return vals, err
		}},
		{"mpi.split", func() (map[string]float64, error) {
			var s float64
			err := mpiDriver(sc.mpiNP, seed, func(c *mpi.Comm, r *mpi.Rank) {
				c.Split(r, int64(c.Rank(r)/64), int64(c.Rank(r)))
			}, func(_ *sim.Kernel, secs float64) { s = secs })
			return map[string]float64{"mpi.split_s": s}, err
		}},
		{"mpi.fanin", func() (map[string]float64, error) {
			var s float64
			err := mpiDriver(sc.mpiNP, seed, fanIn, func(_ *sim.Kernel, secs float64) { s = secs })
			return map[string]float64{"mpi.fanin_s": s}, err
		}},
		{"setup", func() (map[string]float64, error) {
			st, err := setUp(tr, "gpfs", seed, sc.bigNP)
			return map[string]float64{"machine.new_s": st.machine, "nekcem.launch_s": st.launch}, err
		}},
		{"machine.transfer", func() (map[string]float64, error) {
			ns, err := transferNs(sc.mpiNP, sc.transfers, seed)
			return map[string]float64{"machine.transfer_ns": ns}, err
		}},
		{"storage", func() (map[string]float64, error) {
			vals := map[string]float64{}
			for _, b := range []fsys.Backend{"gpfs", "pvfs", "bbuf"} {
				w, r, err := storageNs(b, sc.ioNP, sc.writes, seed)
				if err != nil {
					return nil, err
				}
				vals["storage.write_ns."+string(b)] = w
				if b == "gpfs" {
					vals["storage.read_ns.gpfs"] = r
				}
			}
			return vals, nil
		}},
		{"mpiio.collective", func() (map[string]float64, error) {
			s, err := collectiveWriteS(sc.ioNP, seed)
			return map[string]float64{"mpiio.collective_write_s": s}, err
		}},
		{"ckpt.step", func() (map[string]float64, error) {
			vals := map[string]float64{}
			for _, name := range ckptStepNames {
				s, err := ckptStepS(name, sc.ioNP, seed)
				if err != nil {
					return nil, err
				}
				vals["ckpt.step_s."+name] = s
			}
			return vals, nil
		}},
		{"recover.scan", func() (map[string]float64, error) {
			ns, err := scanNs(sc.ioNP, sc.epochs, seed)
			return map[string]float64{"recover.scan_ns": ns}, err
		}},
		{"bbuf.drain", func() (map[string]float64, error) {
			vals := map[string]float64{}
			for _, policy := range []string{"fifo", "deadline"} {
				s, err := drainS(policy, sc.ioNP, seed)
				if err != nil {
					return nil, err
				}
				vals["bbuf.drain_s."+policy] = s
			}
			return vals, nil
		}},
	}
	for _, d := range drivers {
		if err := repeat(d.name, d.fn); err != nil {
			return nil, err
		}
	}
	return &layerResult{Metrics: m, Spans: tr.recorded()}, nil
}

// waveNs is the host cost per event of collective waves: width events at
// one simulated time, each scheduling its successor into the next wave.
func waveNs(width, waves int) float64 {
	k := sim.NewKernel()
	last := float64(waves - 1)
	var fire func()
	fire = func() {
		if now := k.Now(); now < last {
			k.At(now+1, fire)
		}
	}
	t0 := time.Now()
	for i := 0; i < width; i++ {
		k.At(0, fire)
	}
	k.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(width*waves)
}

// handoffNs is the host cost of one Proc.Sleep round trip between two
// processes that take turns, so every sleep hands the baton to the other
// process's goroutine and back through the kernel.
func handoffNs(n int) float64 {
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		k.Go(fmt.Sprintf("sleeper%d", i), func(p *sim.Proc) {
			p.Sleep(float64(i) * 0.5e-6)
			for j := 0; j < n/2; j++ {
				p.Sleep(1e-6)
			}
		})
	}
	t0 := time.Now()
	k.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// newMachine builds an np-rank machine of the default preset, seeded the
// way the experiments seed theirs.
func newMachine(np int, seed uint64) (*sim.Kernel, *machine.Machine, error) {
	k := sim.NewKernel()
	d, err := machine.Lookup("")
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.New(k, xrand.New(seed^uint64(np)*0x9e37), d.Config(np))
	return k, m, err
}

// mpiDriver spawns body on an np-rank world and times the kernel run that
// executes it; done receives the kernel and the host seconds.
func mpiDriver(np int, seed uint64, body func(*mpi.Comm, *mpi.Rank), done func(*sim.Kernel, float64)) error {
	k, m, err := newMachine(np, seed)
	if err != nil {
		return err
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	w.Spawn(body)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		return err
	}
	done(k, time.Since(t0).Seconds())
	return nil
}

// fanIn is rbIO's shipping pattern: 63 of every 64 ranks Isend a chunk to
// their group's first rank, which receives them in order.
func fanIn(c *mpi.Comm, r *mpi.Rank) {
	const group, tag = 64, 7
	rank := c.Rank(r)
	leader := rank - rank%group
	if rank != leader {
		c.Isend(r, leader, tag, data.Synthetic(2*mib)).Wait(r.Proc())
		return
	}
	for src := leader + 1; src < leader+group && src < c.Size(); src++ {
		c.Recv(r, src, tag)
	}
}

// transferNs prices n point-to-point messages between random nodes of an
// np-rank machine's interconnect.
func transferNs(np, n int, seed uint64) (float64, error) {
	_, m, err := newMachine(np, seed)
	if err != nil {
		return 0, err
	}
	rng := xrand.New(seed)
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(m.NumNodes()), rng.Intn(m.NumNodes())}
	}
	t0 := time.Now()
	for i, p := range pairs {
		m.Net.Transfer(float64(i)*1e-5, p[0], p[1], mib)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// storageNs writes n 4 MiB blocks through a freshly mounted backend from
// one rank and closes the file, then reads them back, and returns the host
// nanoseconds per block of each phase, open and close included (the
// kernel runs background commits and drains while the rank waits).
func storageNs(b fsys.Backend, np, n int, seed uint64) (writeNs, readNs float64, err error) {
	k, m, err := newMachine(np, seed)
	if err != nil {
		return 0, 0, err
	}
	fs, err := fsys.Mount(b, m, fsys.MountOptions{})
	if err != nil {
		return 0, 0, err
	}
	const blk = 4 * mib
	var ioErr error
	k.Go("io", func(p *sim.Proc) {
		t0 := time.Now()
		h, err := fs.Create(p, 0, "bench/data")
		if err == nil {
			for i := 0; i < n && err == nil; i++ {
				err = h.WriteAt(p, 0, int64(i)*blk, data.Synthetic(blk))
			}
			err = errors.Join(err, h.Close(p, 0))
		}
		writeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
		if err != nil {
			ioErr = err
			return
		}
		t0 = time.Now()
		h, err = fs.Open(p, 0, "bench/data")
		if err == nil {
			for i := 0; i < n && err == nil; i++ {
				_, err = h.ReadAt(p, 0, int64(i)*blk, blk)
			}
			err = errors.Join(err, h.Close(p, 0))
		}
		readNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
		ioErr = err
	})
	return writeNs, readNs, errors.Join(k.Run(), ioErr)
}

// collectiveWriteS times one MPI-IO collective write of a 2 MiB chunk per
// rank into one shared file on GPFS, open and close included.
func collectiveWriteS(np int, seed uint64) (float64, error) {
	k, m, err := newMachine(np, seed)
	if err != nil {
		return 0, err
	}
	fs, err := fsys.Mount("gpfs", m, fsys.MountOptions{})
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	errs := make([]error, np)
	w.Spawn(func(c *mpi.Comm, r *mpi.Rank) {
		f, err := mpiio.Open(c, r, fs, "bench/coll", true, mpiio.DefaultHints())
		if err == nil {
			err = f.WriteAtAll(r, int64(c.Rank(r))*2*mib, data.Synthetic(2*mib))
			err = errors.Join(err, f.Close(r))
		}
		errs[c.Rank(r)] = err
	})
	t0 := time.Now()
	err = k.Run()
	return time.Since(t0).Seconds(), errors.Join(append(errs, err)...)
}

// ckptStepS times ckpt.New plus one solver step that checkpoints, on a
// freshly built np-rank machine with GPFS.
func ckptStepS(name string, np int, seed uint64) (float64, error) {
	_, m, err := newMachine(np, seed)
	if err != nil {
		return 0, err
	}
	fs, err := fsys.Mount("gpfs", m, fsys.MountOptions{})
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(m, mpi.DefaultConfig())
	t0 := time.Now()
	s, err := ckpt.New(name, np)
	if err != nil {
		return 0, err
	}
	res, err := nekcem.Run(w, fs, nekcem.RunConfig{
		Mesh: nekcem.PaperMesh(np), Strategy: s, Dir: "ckpt", Steps: 1, CheckpointEvery: 1,
		Synthetic: true, SkipPresetup: true, PayloadFactor: nekcem.PaperPayloadFactor,
		Compute: nekcem.DefaultComputeModel(),
	})
	secs := time.Since(t0).Seconds()
	if err == nil && len(res.Checkpoints) != 1 {
		err = fmt.Errorf("%s: %d checkpoints, want 1", name, len(res.Checkpoints))
	}
	return secs, err
}

// scanNs builds an epoch-manifest log for np ranks over the given number
// of epochs (the newest one torn by a missing commit) and runs a restart
// scan over it through GPFS; it returns the host nanoseconds of both.
func scanNs(np, epochs int, seed uint64) (float64, error) {
	k, m, err := newMachine(np, seed)
	if err != nil {
		return 0, err
	}
	fs, err := fsys.Mount("gpfs", m, fsys.MountOptions{})
	if err != nil {
		return 0, err
	}
	const chunk = 2 * mib
	t0 := time.Now()
	log := recover.NewLog(seed, np)
	seg := log.StartSegment("ckpt", 0, 0)
	for e := 1; e <= epochs; e++ {
		step, at := int64(e), float64(e)*10
		path := fmt.Sprintf("ckpt/step%d.dat", e)
		for r := 0; r < np; r++ {
			seg.EpochBlock(ckpt.BlockRecord{Level: ckpt.LevelGlobal, Step: step, Rank: r, Path: path,
				Offset: int64(r) * chunk, Bytes: chunk, Time: at})
			if e < epochs || r < np-1 {
				seg.EpochCommit(ckpt.CommitRecord{Level: ckpt.LevelGlobal, Step: step, Rank: r, Blocks: 1, Time: at + 1})
			}
		}
	}
	var res recover.ScanResult
	var scanErr error
	k.Go("scan", func(p *sim.Proc) {
		res, scanErr = recover.Scan(p, fs, log, recover.ScanOptions{})
	})
	err = errors.Join(k.Run(), scanErr)
	ns := float64(time.Since(t0).Nanoseconds())
	if err == nil && (res.Torn != 1 || res.Pick == nil || res.Pick.Step != int64(epochs-1)) {
		err = fmt.Errorf("scan found %d torn and picked %v, want 1 torn and step %d", res.Torn, res.Pick, epochs-1)
	}
	return ns, err
}

// drainS writes 6 GiB from 128 ranks into a 4-node, 0.25 GB/s burst-buffer
// fleet (8 GiB of buffer, so nothing spills) under the given drain policy
// and times the kernel run until the fleet has drained everything.
func drainS(policy string, np int, seed uint64) (float64, error) {
	k, m, err := newMachine(np, seed)
	if err != nil {
		return 0, err
	}
	fs, err := fsys.Mount("bbuf", m, fsys.MountOptions{BBNodes: 4, BBDrainBW: 0.25e9, Drain: policy})
	if err != nil {
		return 0, err
	}
	const writers, blocks, blk = 128, 12, 4 * mib
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		rank := i * (np / writers)
		k.Go(fmt.Sprintf("writer%d", i), func(p *sim.Proc) {
			h, err := fs.Create(p, rank, fmt.Sprintf("bb/%d", i))
			if err == nil {
				for j := 0; j < blocks && err == nil; j++ {
					err = h.WriteAt(p, rank, int64(j)*blk, data.Synthetic(blk))
				}
				err = errors.Join(err, h.Close(p, rank))
			}
			errs[i] = err
		})
	}
	t0 := time.Now()
	err = k.Run()
	return time.Since(t0).Seconds(), errors.Join(append(errs, err)...)
}
