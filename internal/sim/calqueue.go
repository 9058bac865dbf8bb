package sim

import "math"

// calQueue is the kernel's event calendar: a windowed calendar queue (a
// Brown-1988 calendar with an overflow level), giving O(1) amortized
// push/pop against the O(log n) of a binary heap at the 10^4-10^5 pending
// events a 64K-rank simulation carries.
//
// Every event maps to a virtual bucket number vb(t) = floor(t / width); the
// physical bucket is vb modulo the (power-of-two) bucket count. Only events
// inside the active window [curVB, winHi) are bucketed; later events wait in
// an overflow (t, seq) min-heap and migrate into the buckets in batches when
// the window drains (reseed). The two levels exist because this workload's
// event spacing is violently bimodal — microsecond-spaced message traffic
// under checkpoint phases scheduled whole seconds out — so no single bucket
// width fits both: fitting the full span collapses the near-term population
// into one giant bucket heap, fitting the head strands the cursor walking
// millions of empty buckets. Fitting the width to the events inside the
// window sidesteps the dilemma.
//
// Correctness does not depend on the width at all — only on vb being a
// monotone function of t, which floating-point multiply-and-truncate
// guarantees. The queue maintains two invariants:
//
//   - every bucketed event has vb >= curVB: pop only removes an event whose
//     vb equals curVB, so an event in another bucket can never overtake it
//     (vb monotone in t means every other event has a strictly later time,
//     or lives in the same bucket where the per-bucket (t, seq) ordering
//     breaks the tie); push rewinds curVB when an event lands before it;
//   - every bucketed event precedes every overflow event, so pop may always
//     drain the buckets first. Push routes events at or past winHi to the
//     overflow heap, and resize caps the new window at the overflow minimum
//     when it retunes the width under a non-empty overflow.
//
// The result is that pop always returns the global (t, seq) minimum — the
// exact order a plain binary heap would produce — so simulated-time results
// are bit-identical by construction.
//
// Buckets store events by value and keep their capacity across pops, so the
// steady-state event churn performs no allocations; memory is only touched
// on resize and reseed.
type calQueue struct {
	buckets []bucket // per-bucket (t, seq) priority queues
	mask    uint64   // len(buckets) - 1; len is a power of two
	width   float64  // bucket time width
	inv     float64  // 1 / width
	ovfT    float64  // times >= ovfT (incl. +Inf) can never be bucketed
	curVB   uint64   // current virtual bucket (search cursor)
	winHi   uint64   // virtual buckets >= winHi go to the overflow heap
	n       int      // events stored in buckets
	ovf     []event  // (t, seq) min-heap of events beyond the window
	batch   []event  // reseed scratch
}

const (
	calMinBuckets = 16
	// calMinWidth floors the bucket width at a nanosecond — far below any
	// physically meaningful event spacing in this model. Without a floor, a
	// cluster of events separated by float-rounding ulps drives the width
	// estimate to ~1e-18 and the entire population out of the window.
	calMinWidth = 1e-9
)

// bucket is one calendar slot. The same bucket that holds three events in a
// sparse phase holds tens of thousands during a 64K-rank wave (a barrier
// releasing every rank at one instant, a gather serializing into one node),
// and those waves are scheduled in ascending (t, seq) order. The bucket
// exploits that: as long as pushes arrive in order it stays a sorted run
// popped O(1) from a head cursor, and only degrades to a binary heap — until
// it next drains — when an out-of-order push lands. The wave pattern
// therefore pays nothing for depth, instead of an O(log n) sift per event.
type bucket struct {
	evs  []event
	head int  // first live element when sorted
	heap bool // evs is a (t, seq) min-heap instead of a sorted run
}

func (b *bucket) empty() bool { return len(b.evs) == b.head }

// min returns the least event without removing it. Callers guarantee the
// bucket is non-empty. In heap mode head is always 0.
func (b *bucket) min() event { return b.evs[b.head] }

func (b *bucket) push(ev event) {
	if b.heap {
		b.evs = bheapPush(b.evs, ev)
		return
	}
	if n := len(b.evs); n == b.head || !eventLess(ev, b.evs[n-1]) {
		if b.head > 32 && 2*b.head >= n {
			// Mostly dead slots ahead of the cursor: compact so interleaved
			// push/pop traffic cannot grow the slice without bound. Copying
			// the live tail is amortized O(1) against the pops that created
			// the dead prefix.
			b.evs = b.evs[:copy(b.evs, b.evs[b.head:])]
			b.head = 0
		}
		b.evs = append(b.evs, ev) // still sorted
		return
	}
	// Out-of-order push: compact the live run to the front and heapify it.
	// The run is sorted — already a valid heap — so only the new element
	// needs sifting.
	b.evs = b.evs[:copy(b.evs, b.evs[b.head:])]
	b.head = 0
	b.heap = true
	b.evs = bheapPush(b.evs, ev)
}

func (b *bucket) pop() event {
	if b.heap {
		var ev event
		ev, b.evs = bheapPop(b.evs)
		if len(b.evs) == 0 {
			b.heap = false // drained: next fill starts as a sorted run
		}
		return ev
	}
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // clear the slot so the closure can be collected
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
	}
	return ev
}

// drainInto appends the bucket's events to dst in arbitrary order, tracking
// the min/max time seen, and empties the bucket.
func (b *bucket) drainInto(dst []event, lo, hi float64) ([]event, float64, float64) {
	for _, ev := range b.evs[b.head:] {
		if ev.t < lo {
			lo = ev.t
		}
		if ev.t > hi {
			hi = ev.t
		}
		dst = append(dst, ev)
	}
	b.evs = b.evs[:0]
	b.head = 0
	b.heap = false
	return dst, lo, hi
}

func (c *calQueue) init() {
	c.buckets = make([]bucket, calMinBuckets)
	c.mask = calMinBuckets - 1
	c.setWidth(1e-6)
	c.winHi = calMinBuckets
}

// setWidth fixes the bucket width and the float-safety threshold. The
// threshold keeps t/width below 2^62 so the float-to-uint64 conversion in vb
// is always defined; anything later (including +Inf) always lives in the
// overflow heap regardless of the window.
func (c *calQueue) setWidth(w float64) {
	if !(w > calMinWidth) || math.IsInf(w, 0) {
		w = calMinWidth
	}
	c.width = w
	c.inv = 1 / w
	c.ovfT = w * (1 << 62)
}

// vb maps a time to its virtual bucket. Callers guarantee 0 <= t < ovfT.
func (c *calQueue) vb(t float64) uint64 { return uint64(t * c.inv) }

// len reports the total number of queued events.
func (c *calQueue) len() int { return c.n + len(c.ovf) }

// eventLess orders by (time, scheduling order). The top bits of seq carry
// the scheduling layer's trace tag (see layerShift in kernel.go) and are
// masked off here: layer tags must never influence dispatch order, or
// attaching a recorder would change simulated results.
func eventLess(a, b event) bool {
	return a.t < b.t || (a.t == b.t && a.seq&seqMask < b.seq&seqMask)
}

func (c *calQueue) push(ev event) {
	if ev.t >= c.ovfT {
		c.ovf = bheapPush(c.ovf, ev)
		return
	}
	if c.n >= 2*len(c.buckets) {
		c.resize()
		if ev.t >= c.ovfT {
			c.ovf = bheapPush(c.ovf, ev)
			return
		}
	}
	v := c.vb(ev.t)
	if v >= c.winHi {
		if c.n == 0 && len(c.ovf) == 0 {
			// Queue idle and time moved on: slide the window to the event.
			c.curVB = v
			c.winHi = v + uint64(len(c.buckets))
		} else {
			c.ovf = bheapPush(c.ovf, ev)
			return
		}
	}
	if v < c.curVB {
		c.curVB = v // re-establish the vb >= curVB invariant
	}
	c.buckets[v&c.mask].push(ev)
	c.n++
}

// peek returns the global (t, seq) minimum without removing it.
func (c *calQueue) peek() (event, bool) {
	if c.n > 0 {
		return c.buckets[c.locate()].min(), true
	}
	if len(c.ovf) > 0 {
		return c.ovf[0], true
	}
	return event{}, false
}

// pop removes and returns the global (t, seq) minimum. Bucketed events always
// precede overflow events, so the calendar is drained first; when it empties,
// the window reseeds from the overflow heap.
func (c *calQueue) pop() event {
	if c.n == 0 {
		if len(c.ovf) == 0 || c.ovf[0].t >= c.ovfT {
			var ev event
			ev, c.ovf = bheapPop(c.ovf)
			return ev
		}
		c.reseed()
	}
	b := c.locate()
	ev := c.buckets[b].pop()
	c.n--
	if c.n < len(c.buckets)/32 && len(c.buckets) > calMinBuckets {
		c.resize()
	}
	return ev
}

// locate advances curVB to the next virtual bucket holding a due event and
// returns its physical bucket index. Callers guarantee n > 0. A full lap over
// the bucket array without a hit means the queue is sparse relative to the
// cursor; then jump directly to the earliest event instead of walking time.
func (c *calQueue) locate() int {
	for steps := len(c.buckets); steps > 0; steps-- {
		b := c.curVB & c.mask
		if bk := &c.buckets[b]; !bk.empty() && c.vb(bk.min().t) == c.curVB {
			return int(b)
		}
		c.curVB++
	}
	return c.jump()
}

// reseed slides the window to the earliest overflow events and migrates a
// batch of them into the buckets, refitting the bucket width to the batch's
// own mean spacing. Because the heap drains in ascending (t, seq) order the
// batch is sorted, so the width estimate is exact for precisely the events
// it will govern — this is what keeps the calendar adaptive across phases
// whose event spacing differs by six orders of magnitude. Ascending order
// also means every migrated event lands as a sorted-run append. Callers
// guarantee the overflow top is below the float-safety threshold.
func (c *calQueue) reseed() {
	nb := len(c.buckets)
	limit := 2 * nb
	c.batch = c.batch[:0]
	for len(c.ovf) > 0 && c.ovf[0].t < c.ovfT && len(c.batch) < limit {
		var ev event
		ev, c.ovf = bheapPop(c.ovf)
		c.batch = append(c.batch, ev)
	}
	if m := len(c.batch); m > 1 {
		if span := c.batch[m-1].t - c.batch[0].t; span > 0 {
			c.setWidth(3 * span / float64(m-1))
		}
	}
	v := c.vb(c.batch[0].t)
	// If the batch boundary split a tighter-than-width cluster, drain the
	// rest of the cluster too: the window start bucket must never be capped
	// away, or no batch event could be placed and pop would loop.
	for len(c.ovf) > 0 && c.ovf[0].t < c.ovfT && c.vb(c.ovf[0].t) <= v {
		var ev event
		ev, c.ovf = bheapPop(c.ovf)
		c.batch = append(c.batch, ev)
	}
	c.curVB = v
	c.winHi = v + uint64(nb)
	if len(c.ovf) > 0 && c.ovf[0].t < c.ovfT {
		if lim := c.vb(c.ovf[0].t); lim < c.winHi {
			c.winHi = lim
		}
	}
	for _, ev := range c.batch {
		vv := c.vb(ev.t)
		if vv >= c.winHi {
			// Beyond the capped window: back to the overflow heap (the batch
			// is ascending, so these still precede everything left in it).
			c.ovf = bheapPush(c.ovf, ev)
			continue
		}
		c.buckets[vv&c.mask].push(ev)
		c.n++
	}
}

// jump finds the earliest event by scanning bucket heads and moves the cursor
// to it. Distinct buckets can never share a virtual bucket number, so the
// head with the minimum (t, seq) is the unique next event.
func (c *calQueue) jump() int {
	best := -1
	for i := range c.buckets {
		if bk := &c.buckets[i]; !bk.empty() &&
			(best < 0 || eventLess(bk.min(), c.buckets[best].min())) {
			best = i
		}
	}
	c.curVB = c.vb(c.buckets[best].min().t)
	return best
}

// resize rebuilds the calendar level for the current bucketed population:
// bucket count is the next power of two covering it, width targets a few
// events per bucket across that population's spacing. Overflow events stay
// in the overflow heap; the new window is capped at the overflow minimum so
// the buckets-before-overflow invariant survives the width change.
func (c *calQueue) resize() {
	all := make([]event, 0, c.n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range c.buckets {
		all, lo, hi = c.buckets[i].drainInto(all, lo, hi)
	}

	nb := calMinBuckets
	for nb < len(all) {
		nb <<= 1
	}
	if nb != len(c.buckets) {
		c.buckets = make([]bucket, nb)
	}
	c.mask = uint64(nb) - 1
	// The bucketed population is window-bounded, so its span holds no
	// far-future outliers and the plain mean spacing is a sound width fit.
	if span := hi - lo; span > 0 && len(all) > 1 {
		c.setWidth(3 * span / float64(len(all)-1))
	}
	c.n = 0
	if len(all) == 0 {
		c.curVB = 0
		c.winHi = 0 // next push slides the window, next pop reseeds
		return
	}
	c.curVB = c.vb(lo)
	c.winHi = c.curVB + uint64(nb)
	if len(c.ovf) > 0 && c.ovf[0].t < c.ovfT {
		if cap := c.vb(c.ovf[0].t); cap < c.winHi {
			c.winHi = cap
		}
	}
	for _, ev := range all {
		// Events the capped window excludes join the overflow heap (they
		// still precede everything already there) and return at reseed.
		if v := c.vb(ev.t); v >= c.winHi {
			c.ovf = bheapPush(c.ovf, ev)
			continue
		}
		c.push(ev)
	}
}

// bheapPush and bheapPop implement a by-value (t, seq) binary min-heap on an
// event slice; used for heap-mode buckets and the overflow heap.
func bheapPush(h []event, ev event) []event {
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !eventLess(h[i], h[par]) {
			break
		}
		h[i], h[par] = h[par], h[i]
		i = par
	}
	return h
}

func bheapPop(h []event) (event, []event) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // clear the slot so the closure can be collected
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && eventLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top, h
}
