package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/trace"
)

// Process-free collectives. A rank's process parks once when it enters a
// tree collective. From then on the rank's collOp runs the binomial trees
// as a continuation in kernel context. Each hop's completion — a send's
// local completion, a receive's match, an inbox hit's copy-out — fires the
// op at the instant and the (t, seq) position where a process stepping
// through the tree would be resumed, and the op posts the next hop itself.
// The last hop resumes the process inline (sim.Proc.ResumeInline) at that
// same position. Every fabric charge, message delivery and tie-break
// therefore keeps the order of the process-stepped tree, which
// TestCollectivesGolden pins, while a collective costs each rank one park
// and one resume however deep the trees. One scheduling difference
// remains: a receive that finds its message already in the inbox schedules
// its copy-out as an event even where a process's Sleep fast path would
// skip the calendar. Nothing precedes that event, so it is popped next and
// only adds to the event count.

// collStage is one step of a collective's program.
type collStage uint8

const (
	stGather  collStage = iota // binomial gather of the rank's value(s) to op.root
	stPublish                  // the root registers op.val for a value broadcast
	stReduce                   // the root folds the gathered float bits into op.buf
	stBcast                    // binomial broadcast of op.buf from op.root
	stRead                     // every rank takes the broadcast value
)

// The collectives' programs. Allgathers chain the gather into a value
// broadcast; Split chains two allgathers, so it parks once.
var (
	progBcast      = []collStage{stBcast}
	progBcastValue = []collStage{stPublish, stBcast, stRead}
	progGather     = []collStage{stGather}
	progAllgather  = []collStage{stGather, stPublish, stBcast, stRead}
	progAllreduce  = []collStage{stGather, stReduce, stBcast}
	progSplit      = []collStage{stGather, stPublish, stBcast, stRead, stGather, stPublish, stBcast, stRead}
)

// hopKind is the operation a continuation waits on.
type hopKind uint8

const (
	hopDelay hopKind = iota // a fixed delay: the barrier's release latency
	hopSend
	hopRecv
)

// collOp is one rank's collective in flight, run as a sim.Hook.
type collOp struct {
	r    *Rank
	c    *Comm
	prog []collStage
	pc   int
	n    int // communicator size
	me   int // this rank's comm rank
	root int

	// Tree position in the current gather or broadcast.
	tag, vrank, mask int

	in      [2]int64 // values contributed to successive gathers
	ngather int
	ints    []int64  // gather working set: virtual ranks [vrank, vrank+len(ints))
	bytes   [][]byte // AllgatherBytes' working set, same layout
	reduce  ReduceOp

	buf   data.Buf // broadcast payload; non-roots receive theirs
	val   any      // the value a value broadcast publishes
	size  int64    // bytes a value broadcast charges
	key   splitKey // value-registry key of the broadcast
	out   [2]any   // values taken by successive value broadcasts
	nread int

	t0   float64  // hop start, for its trace span
	sent int64    // bytes of the send in flight
	want recvWant // the receive in flight

	hop        hopKind
	isBytes    bool // the gather carries byte slices (AllgatherBytes)
	fromParent bool // broadcast: the receive from the parent is posted
}

// begin resets the rank's op for a collective over c running prog, keeping
// its working-set buffers.
func (r *Rank) begin(c *Comm, prog []collStage, root int) *collOp {
	if r.op == nil {
		r.op = &collOp{}
	}
	op := r.op
	*op = collOp{
		r: r, c: c, prog: prog, n: len(c.members), me: c.mustRank(r), root: root,
		ints: op.ints[:0], bytes: op.bytes[:0],
	}
	return op
}

// run drives op from the rank's process: it posts the first hop and parks
// until the continuation resumes it, or returns at once when no hop is
// needed (a one-rank communicator).
func (op *collOp) run() {
	w := op.r.w
	var prev trace.Layer
	if w.rec != nil {
		prev = w.K.SetLayer(trace.LayerMPI)
	}
	op.enter()
	if op.advance() {
		op.r.proc.Park()
	}
	if w.rec != nil {
		w.K.SetLayer(prev)
	}
}

// Fire completes the hop in flight and advances the program; when it ends,
// the rank's process resumes at this event's dispatch position.
func (op *collOp) Fire() {
	op.land()
	if !op.advance() {
		op.r.proc.ResumeInline()
	}
}

// advance runs the program until a hop is posted (true) or it ends (false).
func (op *collOp) advance() bool {
	for op.pc < len(op.prog) {
		if op.step() {
			return true
		}
		op.pc++
		if op.pc < len(op.prog) {
			op.enter()
		}
	}
	return false
}

// enter sets up the current stage's tree position.
func (op *collOp) enter() {
	switch op.prog[op.pc] {
	case stGather:
		op.tag = op.c.nextCollTag(op.r)
		op.vrank = (op.me - op.root + op.n) % op.n
		op.mask = 1
		if !op.isBytes {
			op.ints = append(op.ints[:0], op.in[op.ngather])
			op.ngather++
		}
	case stBcast:
		if op.n == 1 {
			return
		}
		op.tag = op.c.nextCollTag(op.r)
		op.vrank = (op.me - op.root + op.n) % op.n
		// The lowest set bit of vrank links a rank to its parent; the root's
		// subtree spans the smallest power of two covering the communicator.
		op.mask = 1
		for op.mask < op.n && op.vrank&op.mask == 0 {
			op.mask <<= 1
		}
		op.fromParent = op.vrank == 0
	}
}

// step runs the current stage; true means it posted a hop.
func (op *collOp) step() bool {
	w := op.c.w
	switch op.prog[op.pc] {
	case stGather:
		return op.gather()
	case stPublish:
		op.key = splitKey{parent: op.c.id, seq: peekSeq(op.r.collSeq, op.c.id)} // stBcast consumes this seq
		if op.n > 1 && op.me == op.root {
			w.values[op.key] = &valueEntry{v: op.val}
		}
		op.buf = data.Synthetic(op.size)
	case stReduce:
		op.buf = data.Buf{}
		if op.me == 0 {
			vals := op.val.([]int64)
			acc := math.Float64frombits(uint64(vals[0]))
			for _, bits := range vals[1:] {
				acc = op.reduce(acc, math.Float64frombits(uint64(bits)))
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(acc))
			op.buf = data.FromBytes(b[:])
		}
	case stBcast:
		return op.n > 1 && op.bcast()
	case stRead:
		v := op.val
		if op.n > 1 && op.me != op.root {
			e := w.values[op.key]
			v = e.v
			e.readers++
			if e.readers == op.n-1 {
				delete(w.values, op.key)
			}
		}
		op.out[op.nread] = v
		op.nread++
	}
	return false
}

// gather walks the binomial gather. Each rank owns the contiguous region
// [vrank, vrank+len) of the virtual ranks: a child at vrank+mask contributes
// exactly the adjacent region, so the working set is a slice and the wire
// encoding lists ascending indices. The root leaves the result, indexed by
// comm rank, in op.val.
func (op *collOp) gather() bool {
	for op.mask < op.n {
		if op.vrank&op.mask != 0 {
			// Send everything owned to the parent and stop.
			parent := (op.vrank - op.mask + op.root) % op.n
			op.mask = op.n
			if op.isBytes {
				op.send(parent, data.FromBytes(encodeBytesRange(op.vrank, op.bytes)))
			} else {
				op.send(parent, encodeInt64Range(op.vrank, op.ints))
			}
			return true
		}
		child := op.vrank + op.mask
		op.mask <<= 1
		if child < op.n {
			op.recv((child + op.root) % op.n)
			return true
		}
	}
	if op.vrank != 0 {
		return false
	}
	if op.isBytes {
		out := make([][]byte, op.n)
		var total int64
		for i, v := range op.bytes {
			out[i] = v
			total += int64(len(v)) + 8
		}
		op.val, op.size = out, total
		return false
	}
	out := make([]int64, op.n)
	for i, v := range op.ints {
		out[(op.vrank+i+op.root)%op.n] = v
	}
	op.val, op.size = out, 8*int64(op.n)
	return false
}

// bcast walks the binomial broadcast: receive from the parent, then forward
// to the children, farthest subtree first.
func (op *collOp) bcast() bool {
	if !op.fromParent {
		op.fromParent = true
		op.recv((op.vrank - op.mask + op.root) % op.n)
		return true
	}
	for op.mask > 1 {
		op.mask >>= 1
		if child := op.vrank + op.mask; child < op.n {
			op.send((child+op.root)%op.n, op.buf)
			return true
		}
	}
	return false
}

// send posts a blocking send to comm rank dst; the sendHook fires op at
// local completion.
func (op *collOp) send(dst int, buf data.Buf) {
	op.hop, op.t0, op.sent = hopSend, op.r.Now(), buf.Len()
	op.r.postSend(op.c, dst, op.tag, buf, op)
}

// recv posts a receive from comm rank src. An arrived message is copied
// out after the receive cost; otherwise delivery's wakeHook fires op.
func (op *collOp) recv(src int) {
	r := op.r
	op.hop, op.t0 = hopRecv, r.Now()
	op.want = recvWant{src: op.c.members[src], tag: op.tag, comm: op.c.id, op: op}
	if m := r.takeInbox(&op.want); m != nil {
		op.want.got = m
		r.w.K.AfterHook(r.w.recvCost(m.buf.Len()), op)
		return
	}
	r.want = &op.want
}

// land completes the hop in flight: it traces it and hands a received
// payload to the current stage.
func (op *collOp) land() {
	r := op.r
	rec := r.w.rec
	switch op.hop {
	case hopSend:
		if rec != nil {
			traceSend(rec, r.id, op.t0, r.Now(), op.sent)
		}
	case hopRecv:
		buf := op.want.got.buf
		r.w.putMsg(op.want.got)
		if rec != nil {
			rec.Span(trace.LayerMPI, "mpi.recv", r.id, op.t0, r.Now(), buf.Len())
		}
		switch {
		case op.prog[op.pc] == stBcast:
			op.buf = buf
		case op.isBytes:
			op.bytes = appendBytesRange(op.bytes, op.vrank+len(op.bytes), buf.Bytes())
		default:
			op.ints = appendInt64Range(op.ints, op.vrank+len(op.ints), buf)
		}
	}
}

// Internal tag space for collectives; user code should use tags below 1<<20.
const collTag = 1 << 20

func (c *Comm) nextCollTag(r *Rank) int {
	return collTag + bump(&r.collSeq, c.id)
}

// HWBarrierLatency is the latency of Blue Gene/P's dedicated tree-based
// barrier network (~1.3us once the last rank arrives).
const HWBarrierLatency = 1.3e-6

// Barrier blocks until every rank of the communicator has entered it. Blue
// Gene/P has a dedicated tree-based collective network for barriers, so the
// model charges a small constant once the last rank arrives instead of
// simulating a software message pattern. Every rank parks once: the last to
// arrive wakes each waiter straight past the latency, and its own op
// resumes it after the same latency.
func (c *Comm) Barrier(r *Rank) {
	n := len(c.members)
	if n == 1 {
		return
	}
	w := c.w
	var prevLayer trace.Layer
	var t0 float64
	if w.rec != nil {
		prevLayer = w.K.SetLayer(trace.LayerMPI)
		t0 = r.Now()
	}
	op := r.begin(c, nil, 0)
	key := splitKey{parent: c.id, seq: bump(&r.collSeq, c.id)}
	st, ok := w.barriers[key]
	if !ok {
		st = &barrierState{}
		w.barriers[key] = st
	}
	if len(st.waiters) < n-1 {
		st.waiters = append(st.waiters, r.proc)
	} else {
		delete(w.barriers, key) // complete; reclaim
		for _, p := range st.waiters {
			h := w.getWakeHook()
			*h = wakeHook{w: w, p: p, d: HWBarrierLatency}
			w.K.AfterHook(0, h)
		}
		w.K.AfterHook(HWBarrierLatency, op)
	}
	r.proc.Park()
	if w.rec != nil {
		w.rec.Span(trace.LayerMPI, "mpi.barrier", r.id, t0, r.Now(), 0)
		w.K.SetLayer(prevLayer)
	}
}

// Bcast broadcasts buf from root to all ranks (binomial tree) and returns
// each rank's copy.
func (c *Comm) Bcast(r *Rank, root int, buf data.Buf) data.Buf {
	if len(c.members) == 1 {
		return buf
	}
	op := r.begin(c, progBcast, root)
	op.buf = buf
	op.run()
	return op.buf
}

// BcastValue broadcasts an arbitrary Go value from root to every rank,
// charging the communication cost of a small broadcast. It exists because a
// real MPI program's ranks obtain shared objects (file handles, plans) from
// the same library call, while in the simulation the object lives on one
// rank; the registry is keyed by the communicator's synchronized collective
// sequence number, so overlapping broadcasts cannot cross.
func (c *Comm) BcastValue(r *Rank, root int, v any) any {
	return c.BcastValueSized(r, root, v, 64)
}

// BcastValueSized is BcastValue charging the broadcast cost of a payload of
// the given byte size. Receivers share the root's object: treat it as
// read-only.
func (c *Comm) BcastValueSized(r *Rank, root int, v any, size int64) any {
	if len(c.members) == 1 {
		return v
	}
	op := r.begin(c, progBcastValue, root)
	op.val, op.size = v, size
	op.run()
	return op.out[0]
}

// Shared returns a value computed once per (communicator, call-site
// sequence). Rank code that derives an identical pure function of
// collectively-known data on every rank (layout headers, file-domain
// tables) calls Shared so the host computes it once; receivers alias the
// same object and must treat it as read-only. No simulated time is charged:
// in a real MPI program every rank computes its own copy concurrently, so
// the wall-clock cost is that of one rank's computation, which the model
// folds into the surrounding operation costs. Every rank of the
// communicator must call Shared at the same point in its collective
// sequence.
func (c *Comm) Shared(r *Rank, compute func() any) any {
	c.mustRank(r)
	if len(c.members) == 1 {
		return compute()
	}
	w := c.w
	seq := bump(&r.collSeq, c.id)
	key := splitKey{parent: c.id, seq: seq}
	e, ok := w.values[key]
	if !ok {
		e = &valueEntry{v: compute()}
		w.values[key] = e
	}
	e.readers++
	if e.readers == len(c.members) {
		delete(w.values, key)
	}
	return e.v
}

// GatherInt64 gathers one int64 from every rank to root (binomial tree).
// Root receives the full slice indexed by comm rank; others receive nil.
func (c *Comm) GatherInt64(r *Rank, root int, v int64) []int64 {
	op := r.begin(c, progGather, root)
	op.in[0] = v
	op.run()
	out, _ := op.val.([]int64)
	return out
}

// AllgatherInt64 gathers one int64 from every rank to every rank. All ranks
// receive the same backing slice (the broadcast is charged at full size but
// the decoded object is shared): treat the result as read-only.
func (c *Comm) AllgatherInt64(r *Rank, v int64) []int64 {
	op := r.begin(c, progAllgather, 0)
	op.in[0] = v
	op.run()
	return op.out[0].([]int64)
}

// AllgatherBytes gathers each rank's byte slice to every rank, indexed by
// comm rank (a variable-length allgatherv). Receivers share the root's
// slices; treat the result as read-only.
func (c *Comm) AllgatherBytes(r *Rank, b []byte) [][]byte {
	op := r.begin(c, progAllgather, 0)
	op.isBytes = true
	op.bytes = append(op.bytes, b)
	op.run()
	clear(op.bytes) // drop references to the gathered payloads
	return op.out[0].([][]byte)
}

// encodeBytesRange serializes the contiguous (index, bytes) pairs
// (base+i, vals[i]).
func encodeBytesRange(base int, vals [][]byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for i, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(base+i))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

// appendBytesRange decodes a contiguous run encoded by encodeBytesRange and
// appends its byte slices (aliasing the buffer) to vals.
func appendBytesRange(vals [][]byte, base int, b []byte) [][]byte {
	if len(b) < 4 {
		return vals
	}
	n := int(binary.LittleEndian.Uint32(b))
	p := b[4:]
	for i := 0; i < n && len(p) >= 8; i++ {
		k := int(binary.LittleEndian.Uint32(p))
		l := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if l > len(p) {
			break
		}
		if k != base {
			panic(fmt.Sprintf("mpi: gather region starts at %d, want %d", k, base))
		}
		vals = append(vals, p[:l])
		p = p[l:]
		base++
	}
	return vals
}

// ReduceOp is a binary reduction operator.
type ReduceOp func(a, b float64) float64

// Standard reduction operators.
var (
	Sum ReduceOp = func(a, b float64) float64 { return a + b }
	Max ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
	Min ReduceOp = func(a, b float64) float64 { return math.Min(a, b) }
)

// AllreduceFloat64 reduces v across all ranks with op and returns the result
// on every rank (gather-reduce + broadcast).
func (c *Comm) AllreduceFloat64(r *Rank, op ReduceOp, v float64) float64 {
	o := r.begin(c, progAllreduce, 0)
	o.in[0] = int64(math.Float64bits(v))
	o.reduce = op
	o.run()
	return math.Float64frombits(binary.LittleEndian.Uint64(o.buf.Bytes()))
}

// ExscanInt64 returns the exclusive prefix sum of v by comm rank: rank i
// gets sum of v over ranks < i (0 on rank 0). Used to compute file offsets.
func (c *Comm) ExscanInt64(r *Rank, v int64) int64 {
	all := c.AllgatherInt64(r, v)
	var sum int64
	for i := 0; i < c.mustRank(r); i++ {
		sum += all[i]
	}
	return sum
}

// Split partitions the communicator by color, ordering each new
// communicator by (key, old rank), exactly like MPI_Comm_split. Every rank
// must call it; ranks with the same color receive the same *Comm. The
// physical cost is two chained allgathers, of the colors and of the keys.
func (c *Comm) Split(r *Rank, color int64, key int64) *Comm {
	op := r.begin(c, progSplit, 0)
	op.in = [2]int64{color, key}
	op.run()
	colors, keys := op.out[0].([]int64), op.out[1].([]int64)

	w := c.w
	seq := bump(&r.splitCount, c.id)
	sk := splitKey{parent: c.id, seq: seq}
	entry, ok := w.splitReg[sk]
	if !ok {
		entry = &splitEntry{comms: make(map[int64]*Comm)}
		// Build every child communicator deterministically: colors sorted.
		type member struct {
			key  int64
			rank int // comm rank in parent
		}
		groups := make(map[int64][]member)
		var order []int64
		for i := range colors {
			if _, seen := groups[colors[i]]; !seen {
				order = append(order, colors[i])
			}
			groups[colors[i]] = append(groups[colors[i]], member{key: keys[i], rank: i})
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, col := range order {
			ms := groups[col]
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].key != ms[j].key {
					return ms[i].key < ms[j].key
				}
				return ms[i].rank < ms[j].rank
			})
			members := make([]int, len(ms))
			for i, m := range ms {
				members[i] = c.members[m.rank]
			}
			// Deviation from MPI: the new communicator is always ordered by
			// world rank regardless of key (Comm.Rank relies on sorted
			// membership). The paper's strategies only split with
			// key == parent rank, where the two orderings coincide.
			sort.Ints(members)
			off, ident := identOff(members)
			entry.comms[col] = &Comm{
				w: w, id: w.newCommID(), members: members, ident: ident, off: off,
			}
		}
		w.splitReg[sk] = entry
	}
	return entry.comms[color]
}

// encodeInt64Range serializes the contiguous (index, value) pairs
// (base+i, vals[i]).
func encodeInt64Range(base int, vals []int64) data.Buf {
	b := make([]byte, 0, 16*len(vals))
	var tmp [8]byte
	for i, v := range vals {
		binary.LittleEndian.PutUint64(tmp[:], uint64(base+i))
		b = append(b, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		b = append(b, tmp[:]...)
	}
	return data.FromBytes(b)
}

// appendInt64Range decodes a contiguous run encoded by encodeInt64Range and
// appends its values to vals. The run must start at index base — gather
// regions are adjacent by construction.
func appendInt64Range(vals []int64, base int, buf data.Buf) []int64 {
	b := buf.Bytes()
	for i := 0; i+16 <= len(b); i += 16 {
		if k := int(binary.LittleEndian.Uint64(b[i:])); k != base {
			panic(fmt.Sprintf("mpi: gather region starts at %d, want %d", k, base))
		}
		vals = append(vals, int64(binary.LittleEndian.Uint64(b[i+8:])))
		base++
	}
	return vals
}
