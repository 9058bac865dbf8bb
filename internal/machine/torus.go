package machine

import "repro/internal/topo"

// TorusTopology adapts the 3-D torus geometry of internal/topo to the
// Topology seam. Every vertex is a compute node (the torus has no internal
// switches); link indices are topo's dense (node, direction) indexing.
type TorusTopology struct {
	T topo.Torus

	// hopBuf is reused across AppendRoute calls so the hot transfer path
	// stays allocation-free; the kernel serializes all callers.
	hopBuf []topo.Hop
}

// NewTorusTopology returns a balanced torus over n nodes (n must be a
// power of two, as Blue Gene partitions always are).
func NewTorusTopology(n int) *TorusTopology {
	return &TorusTopology{T: topo.Dims(n)}
}

// Name implements Topology.
func (t *TorusTopology) Name() string { return "torus" }

// Nodes implements Topology.
func (t *TorusTopology) Nodes() int { return t.T.Nodes() }

// NumLinks implements Topology.
func (t *TorusTopology) NumLinks() int { return t.T.NumLinks() }

// Link implements Topology: index node*6+dir, endpoints via the torus
// neighbor relation.
func (t *TorusTopology) Link(idx int) (from, to int) {
	from = idx / int(topo.NumDirs)
	d := topo.Dir(idx % int(topo.NumDirs))
	return from, t.T.Neighbor(from, d)
}

// Distance implements Topology.
func (t *TorusTopology) Distance(a, b int) int { return t.T.Distance(a, b) }

// AppendRoute implements Topology: the dimension-ordered minimal route,
// converted hop by hop to dense link indices.
func (t *TorusTopology) AppendRoute(dst []int, a, b int) []int {
	t.hopBuf = t.T.AppendRoute(t.hopBuf[:0], a, b)
	for _, h := range t.hopBuf {
		dst = append(dst, t.T.LinkIndex(h))
	}
	return dst
}
