package machine

import "repro/internal/registry"

// Descriptor is a registered machine preset: a named Config generator, the
// unit of selection for iobench -machine.
type Descriptor struct {
	Name    string
	Doc     string   // one-line description for -machine listings
	Aliases []string // alternate names resolving to the same preset
	Config  func(ranks int) Config
}

var machines = registry.New[Descriptor]("machine", "machine", DefaultMachine)

// Register adds a machine preset. It panics on a duplicate or empty name —
// preset registration happens in init() and a collision is a programming
// error, same contract as fsys.Register and exp.Register.
func Register(d Descriptor) {
	if d.Config == nil {
		panic("machine: Register with nil config")
	}
	machines.Register(d.Name, d, d.Aliases...)
}

// Machines returns the registered preset names, sorted (aliases excluded).
func Machines() []string { return machines.Sorted() }

// DefaultMachine is the preset selected by the empty machine name.
const DefaultMachine = "intrepid"

// Lookup resolves a machine name (or alias) to its descriptor. The empty
// name selects DefaultMachine. Unknown names fail with a typed
// *registry.UnknownError listing the valid set.
func Lookup(name string) (Descriptor, error) { return machines.Lookup(name) }
