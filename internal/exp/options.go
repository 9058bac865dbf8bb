package exp

import (
	"runtime"

	"repro/internal/fsys"
)

// normalize resolves every zero-value default of Options in one place: the
// seed, the worker-pool size, the NP sweep, and the backend. All other code
// (runCheckpoint, the runner, the fault sweeps) consumes normalized values
// via the accessors below instead of re-implementing the defaults.
func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if len(o.NPs) == 0 {
		o.NPs = PaperNPs
	}
	if o.FS == "" {
		o.FS = fsys.DefaultBackend
	}
	return o
}

func (o Options) seed() uint64 { return o.normalize().Seed }

func (o Options) workers() int { return o.normalize().Parallel }

func (o Options) nps() []int { return o.normalize().NPs }

// Option is a functional option for New.
type Option func(*Options)

// New builds Options from functional options. New() with no arguments is
// equivalent to the zero Options value: defaults resolve lazily through
// normalize, so the two construction styles are interchangeable.
func New(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Seed sets the experiment seed (0 means the default seed 1).
func Seed(s uint64) Option { return func(o *Options) { o.Seed = s } }

// NPs sets the processor counts to sweep.
func NPs(nps ...int) Option {
	return func(o *Options) { o.NPs = append([]int(nil), nps...) }
}

// Backend selects the storage backend ("" means fsys.DefaultBackend).
func Backend(b fsys.Backend) Option { return func(o *Options) { o.FS = b } }

// Machine selects the machine preset ("" means machine.DefaultMachine).
func Machine(name string) Option { return func(o *Options) { o.Machine = name } }

// Map overrides the preset's rank→node placement policy ("" keeps the
// preset's own mapping).
func Map(policy string) Option { return func(o *Options) { o.Map = policy } }

// Parallel sets the experiment worker-pool size (<= 0 means one per CPU).
func Parallel(n int) Option { return func(o *Options) { o.Parallel = n } }

// Shards is a no-op kept so existing callers still compile.
//
// Deprecated: the partitioned kernel it used to enable was removed; every
// simulation runs on the serial kernel. Use Parallel for fan-out across
// simulations.
func Shards(int) Option { return func(*Options) {} }

// Quiet disables the shared-storage noise model.
func Quiet() Option { return func(o *Options) { o.Quiet = true } }

// Trace attaches a collector that receives one recorder per simulation run.
func Trace(tc *TraceCollector) Option { return func(o *Options) { o.Trace = tc } }

// Manifests attaches an epoch-manifest log to every checkpoint run (pure
// bookkeeping; fault-free results stay byte-identical).
func Manifests() Option { return func(o *Options) { o.Manifests = true } }

// Ckpt restricts headline sweeps to one registered strategy ("" keeps the
// full five-arm sweep). The name must resolve through ckpt.Lookup; CLIs
// validate it before building Options.
func Ckpt(name string) Option { return func(o *Options) { o.Ckpt = name } }

// BB configures the burst-buffer fleet for bbuf-backed runs: nodes sizes
// the fleet (0 = one private node per ION, the legacy shape) and gbps is
// the per-node drain bandwidth in GB/s (0 = the backend default).
func BB(nodes int, gbps float64) Option {
	return func(o *Options) {
		o.BBNodes = nodes
		o.BBDrainBW = gbps * 1e9
	}
}

// Drain selects the burst-buffer drain-scheduler policy ("" = fifo). The
// name must resolve through bbuf.Lookup; CLIs validate it before building
// Options.
func Drain(name string) Option { return func(o *Options) { o.Drain = name } }
