package exp

import (
	"fmt"

	"repro/internal/bbuf"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/gpfs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xrand"

	// Machine presets and the remaining backend self-register from their
	// package inits; these imports are what make them selectable here.
	_ "repro/internal/bgp"
	_ "repro/internal/pvfs"
)

// Scenario is one composed simulation: a kernel, the machine it models, the
// storage mounted on it and, when the Spec asks, a trace recorder and a
// fault injector. Build is the only place one is made, so every experiment
// and cmd/nekcem share one construction order.
type Scenario struct {
	FS storage.System

	np  int // machine size in ranks
	k   *sim.Kernel
	m   *machine.Machine
	rec *trace.Recorder // nil unless the Spec attached one
	inj *fault.Injector // nil unless faults are armed
}

// Spec says what Build composes. NP and Seed are the only fields callers
// outside this package set; the rest are zero unless an experiment needs
// them.
type Spec struct {
	NP int
	// Seed seeds the machine RNG, whose streams drive the noise model. Each
	// experiment keeps its own derivation from the options seed, and the
	// goldens freeze each one.
	Seed uint64

	// job carries the per-job machine, backend and burst-buffer overrides
	// and the fault spec to arm; its other fields are ignored.
	job Job
	rec *trace.Recorder // attached before any component instruments itself
	// mount, when set, replaces the registry mount (the GPFS-knob studies
	// mount GPFS with a custom configuration).
	mount func(*machine.Machine) (storage.System, error)
}

// Build composes a scenario in the order every golden pins: kernel, then
// recorder, then machine from the Spec's RNG seed, then storage, then
// faults. Worlds come from World afterwards, so none spawns before the
// fault events' kernel sequence numbers are fixed.
func Build(o Options, s Spec) (*Scenario, error) {
	k := sim.NewKernel()
	if s.rec != nil {
		k.SetRecorder(s.rec)
	}
	j := s.job
	name := j.Machine
	if name == "" {
		name = o.Machine
	}
	d, err := machine.Lookup(name)
	if err != nil {
		return nil, err
	}
	cfg := d.Config(s.NP)
	if j.Map != "" {
		cfg.Placement = j.Map
	} else if o.Map != "" {
		cfg.Placement = o.Map
	}
	// The placement seed rides the experiment seed so a "random" mapping is
	// reproducible per run; placement never draws from the machine RNG.
	cfg.PlacementSeed = o.seed()
	if j.NodesPerPset > 0 {
		cfg.NodesPerPset = j.NodesPerPset
	}
	m, err := machine.New(k, xrand.New(s.Seed), cfg)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{np: s.NP, k: k, m: m, rec: s.rec}
	if sc.FS, err = mount(o, s, m); err != nil {
		return nil, err
	}
	if j.Faults != nil {
		if err := sc.armFaults(j.Faults); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// mount mounts the Spec's storage, the job's backend and burst-buffer
// overrides winning over the options', and asserts the storage-core
// capabilities once.
func mount(o Options, s Spec, m *machine.Machine) (storage.System, error) {
	if s.mount != nil {
		return s.mount(m)
	}
	j := s.job
	backend := j.FS
	if backend == "" {
		backend = o.FS
	}
	mo := fsys.MountOptions{Quiet: o.Quiet, BBNodes: o.BBNodes, BBDrainBW: o.BBDrainBW, Drain: o.Drain}
	if j.BBNodes > 0 {
		mo.BBNodes = j.BBNodes
	}
	if j.BBDrain != "" {
		mo.Drain = j.BBDrain
	}
	fs, err := fsys.Mount(backend, m, mo)
	if err != nil {
		return nil, err
	}
	st, ok := fs.(storage.System)
	if !ok {
		return nil, fmt.Errorf("exp: backend %q is not built on the storage core", fs.Name())
	}
	return st, nil
}

// gpfsMount mounts GPFS with cfg in place of the registry's defaults; the
// Quiet ablation still applies.
func gpfsMount(o Options, cfg gpfs.Config) func(*machine.Machine) (storage.System, error) {
	if o.Quiet {
		cfg.NoiseProb = 0
	}
	return func(m *machine.Machine) (storage.System, error) { return gpfs.New(m, cfg) }
}

// World spawns an MPI world over the whole machine with the default
// messaging constants.
func (sc *Scenario) World() *mpi.World { return mpi.NewWorld(sc.m, mpi.DefaultConfig()) }

// components counts every component a fault can take down: compute nodes,
// IONs and file servers. Links only degrade, so they do not interrupt a job.
func (sc *Scenario) components() int {
	return sc.m.NumNodes() + sc.m.NumPsets() + len(sc.FS.Servers())
}

// rankUp reports whether a rank's node is up under the armed faults; nil
// (every rank up) when none are armed.
func (sc *Scenario) rankUp() func(rank int) bool {
	inj, m := sc.inj, sc.m
	if inj == nil {
		return nil
	}
	return func(rank int) bool { return inj.Up(fault.Node, m.NodeOfRank(rank)) }
}

// armFaults samples (or adopts) the spec's schedule, arms an injector on
// the kernel, and threads it through the storage backend and the Ethernet
// NICs. It must run before the MPI world spawns.
func (sc *Scenario) armFaults(spec *FaultSpec) error {
	m := sc.m
	sched := spec.Schedule
	if sched == nil {
		if spec.MTBF <= 0 {
			return fmt.Errorf("exp: fault spec needs an explicit schedule or MTBF > 0")
		}
		horizon := spec.Horizon
		if horizon <= 0 {
			horizon = 150
		}
		sched = fault.Sample(xrand.New(spec.Seed|1), horizon, map[fault.Class]fault.Rates{
			fault.Node:   {N: m.NumNodes(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.ION:    {N: m.NumPsets(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.Server: {N: len(sc.FS.Servers()), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape},
			fault.Link:   {N: m.NumPsets(), MTBF: spec.MTBF, MTTR: spec.MTTR, Shape: spec.Shape, Factor: 0.25},
		})
	}
	inj := fault.NewInjector(sc.k, sched)
	pol := storage.DefaultFaultPolicy()
	if spec.Policy != nil {
		pol = *spec.Policy
	}
	// The jitter stream is split from the fault seed, never from the
	// machine's noise RNG: the storage core's RNG split order is frozen by
	// the fault-free goldens.
	sc.FS.EnableFaults(inj, pol, xrand.New((spec.Seed^0xda3e39cb94b95bdb)|1))
	inj.Subscribe(func(ev fault.Event) {
		switch ev.Class {
		case fault.Link:
			if ev.Index >= m.NumPsets() {
				return
			}
			switch ev.Kind {
			case fault.Degrade:
				m.Eth.NIC(ev.Index).SetDegrade(ev.Factor)
			case fault.Restore:
				m.Eth.NIC(ev.Index).SetDegrade(0)
			}
		case fault.FabricLink:
			// Compute-interconnect links degrade through the generic engine.
			// Sampled schedules never include this class (its rate is absent
			// from the map above), so it only fires from explicit schedules.
			if ev.Index >= m.Topo.NumLinks() {
				return
			}
			switch ev.Kind {
			case fault.Degrade:
				m.Net.SetLinkDegrade(ev.Index, ev.Factor)
			case fault.Restore:
				m.Net.SetLinkDegrade(ev.Index, 0)
			}
		}
	})
	sc.inj = inj
	return nil
}

// paperRun is the paper's synthetic NekCEM run of strat at np ranks: the
// weak-scaling mesh and payload, no presetup, the default compute model,
// checkpoints under "ckpt". Callers set the step schedule.
func paperRun(np int, strat ckpt.Strategy) nekcem.RunConfig {
	return nekcem.RunConfig{
		Mesh:          nekcem.PaperMesh(np),
		Strategy:      strat,
		Dir:           "ckpt",
		Synthetic:     true,
		SkipPresetup:  true,
		PayloadFactor: nekcem.PaperPayloadFactor,
		Compute:       nekcem.DefaultComputeModel(),
	}
}

// NewManifestLog returns an epoch-manifest log for an np-rank job writing
// to fs. On a burst-buffer backend it also wires the two hooks that keep
// the log honest about the staging tier: bytes lost before they drained
// tear the epochs sealed but not yet verified at loss time (the fleet
// reports one aggregated loss per fault event, so ClassifyKills sees one
// consistent number), and an epoch seals only once the fleet is expected
// to have drained it (absorption is not durability).
func NewManifestLog(fs fsys.System, seed uint64, np int) *recover.Log {
	log := recover.NewLog(seed, np)
	if b, ok := fs.(*bbuf.FileSystem); ok {
		b.OnLost(func(_ int, bytes int64, t float64) { log.BufferLoss(bytes, t) })
		log.SetCommitGate(func(t float64) float64 {
			if h := b.DrainHorizon(); h > t {
				return h
			}
			return t
		})
	}
	return log
}
