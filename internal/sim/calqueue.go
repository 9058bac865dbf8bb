package sim

// calQueue is the kernel's event calendar: a binary min-heap of events
// ordered by (t, seq), stored by value in one slice. Sequence numbers are
// unique, so the pop order is a total order fixed by the model alone —
// simulated results do not depend on how the heap arranges its slots.
//
// The slice keeps its capacity across pops, so steady-state event churn
// performs no allocations once the heap has grown to the standing population.
type calQueue struct {
	h []event
}

// len reports the number of queued events.
func (c *calQueue) len() int { return len(c.h) }

func (c *calQueue) push(ev event) { c.h = bheapPush(c.h, ev) }

// peek returns the (t, seq) minimum without removing it.
func (c *calQueue) peek() (event, bool) {
	if len(c.h) == 0 {
		return event{}, false
	}
	return c.h[0], true
}

// pop removes and returns the (t, seq) minimum. Callers guarantee the queue
// is non-empty.
func (c *calQueue) pop() event {
	var ev event
	ev, c.h = bheapPop(c.h)
	return ev
}

// eventLess orders by (time, scheduling order). The top bits of seq carry
// the scheduling layer's trace tag (see layerShift in kernel.go) and are
// masked off here: layer tags must never influence dispatch order, or
// attaching a recorder would change simulated results.
func eventLess(a, b event) bool {
	return a.t < b.t || (a.t == b.t && a.seq&seqMask < b.seq&seqMask)
}

// bheapPush and bheapPop implement the by-value (t, seq) binary min-heap.
// Both sift a hole rather than swapping, so each level moves one 32-byte
// event instead of two.
func bheapPush(h []event, ev event) []event {
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !eventLess(ev, h[par]) {
			break
		}
		h[i] = h[par]
		i = par
	}
	h[i] = ev
	return h
}

func bheapPop(h []event) (event, []event) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // clear the slot so the hook can be collected
	h = h[:n]
	if n == 0 {
		return top, h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(h[r], h[c]) {
			c = r
		}
		if !eventLess(h[c], last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top, h
}
