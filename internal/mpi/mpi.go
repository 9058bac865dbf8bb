// Package mpi implements a message-passing runtime over the simulated Blue
// Gene/P: ranks as simulation processes, communicators, eager point-to-point
// transfers routed over the torus fabric, and the log-P collective
// algorithms (dissemination barrier, binomial broadcast/gather) that MPI
// implementations use.
//
// Semantics follow the subset of MPI the paper's I/O strategies need:
//
//   - Isend is non-blocking and eager: it completes locally after the
//     software overhead plus the time to hand the payload to the DMA — the
//     "perceived" cost Table I measures — while the payload travels the
//     torus and arrives at the receiver later.
//   - Recv matches on (source, tag) within a communicator, in arrival
//     order; AnySource receives the earliest-arrived matching message.
//   - Communicators are split collectively, exactly like MPI_Comm_split.
//
// Each rank runs as one sim.Proc; all rank code executes under the strict
// single-runnable handoff of the kernel, so runs are deterministic. Send and
// Recv block the rank's process. The tree collectives do not step the
// process through their hops: the process parks once on entry, and a
// per-rank continuation fired by kernel hooks walks the trees and resumes
// it once at the end, in the event order a process stepping through the
// hops would produce (see coll.go).
package mpi

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// Config holds the software costs of the MPI layer.
type Config struct {
	SendOverhead float64 // fixed per-send software cost, seconds
	RecvOverhead float64 // fixed per-receive software cost, seconds
	// LocalCopyBW is the rate at which a non-blocking send hands its buffer
	// to the messaging layer — the rate a worker "perceives". Calibrated so
	// a 400 KB field send costs ~10^4 CPU cycles, per Table I.
	LocalCopyBW float64
}

// DefaultConfig returns costs calibrated for BG/P's DCMF messaging layer.
func DefaultConfig() Config {
	return Config{
		SendOverhead: 2e-6,
		RecvOverhead: 1e-6,
		LocalCopyBW:  24e9,
	}
}

// World is an MPI job: one rank per core of its machine slice. A world
// built with NewWorld spans the whole partition (base 0); a world built
// with NewWorldOn covers one tenant's allocation, and its ranks carry the
// machine-global ids [base, base+size) so storage, fault, and trace
// attribution stay correct when several worlds share one machine.
type World struct {
	M   *machine.Machine
	K   *sim.Kernel
	cfg Config

	base  int // first global rank id; ranks[i] has id base+i
	ranks []*Rank
	world *Comm

	// Collective registries, keyed by (communicator, collective sequence).
	splitReg   map[splitKey]*splitEntry
	barriers   map[splitKey]*barrierState
	values     map[splitKey]*valueEntry
	nextCommID int

	msgPool  []*message  // free list of consumed messages
	sendPool []*sendHook // free list of fired send hooks
	wakePool []*wakeHook // free list of fired wake hooks

	// rec caches the kernel's trace recorder at world construction. Every
	// instrumentation point below guards on it being non-nil, which is the
	// entire cost of tracing on the disabled MPI hot path.
	rec *trace.Recorder
}

type valueEntry struct {
	v       any
	readers int
}

type barrierState struct {
	waiters []*sim.Proc // arrived ranks, in arrival order
}

type splitKey struct {
	parent int
	seq    int
}

type splitEntry struct {
	comms map[int64]*Comm // color -> communicator
}

// NewWorld creates the MPI runtime over a whole machine.
func NewWorld(m *machine.Machine, cfg Config) *World {
	return buildWorld(m, cfg, 0, m.Cfg.Ranks)
}

// NewWorldOn creates an MPI runtime scoped to one tenant's machine slice:
// its ranks carry the global ids the alloc owns, and rank→node resolution
// goes through the slice's own placement.
func NewWorldOn(m *machine.Machine, a *machine.Alloc, cfg Config) *World {
	if a.Machine() != m {
		panic("mpi: NewWorldOn with alloc from another machine")
	}
	return buildWorld(m, cfg, a.BaseRank(), a.Ranks())
}

func buildWorld(m *machine.Machine, cfg Config, base, size int) *World {
	w := &World{
		M:          m,
		K:          m.K,
		cfg:        cfg,
		base:       base,
		splitReg:   make(map[splitKey]*splitEntry),
		barriers:   make(map[splitKey]*barrierState),
		values:     make(map[splitKey]*valueEntry),
		nextCommID: 1,
		rec:        m.K.Recorder(),
	}
	w.ranks = make([]*Rank, size)
	members := make([]int, size)
	for i := range w.ranks {
		w.ranks[i] = &Rank{
			w:    w,
			id:   base + i,
			node: m.NodeOfRank(base + i),
		}
		members[i] = base + i
	}
	w.world = &Comm{w: w, id: 0, members: members, ident: true, off: base}
	return w
}

// Base returns the first global rank id of this world's slice (0 for a
// whole-machine world).
func (w *World) Base() int { return w.base }

// newCommID mints a fresh communicator id; the world communicator is 0.
func (w *World) newCommID() int {
	id := w.nextCommID
	w.nextCommID++
	return id
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Comm returns the world communicator (MPI_COMM_WORLD).
func (w *World) Comm() *Comm { return w.world }

// Spawn starts every rank as a simulation process executing body, without
// driving the kernel. Multi-tenant sessions spawn several worlds' ranks
// onto one kernel before a single Run drives them all.
func (w *World) Spawn(body func(c *Comm, r *Rank)) {
	for _, r := range w.ranks {
		r := r
		name := fmt.Sprintf("rank%d", r.id)
		r.proc = w.K.Go(name, func(p *sim.Proc) { body(w.world, r) })
	}
}

// Run spawns every rank executing body and drives the simulation to
// completion. It returns the kernel's error (deadlock detection) if any.
func (w *World) Run(body func(c *Comm, r *Rank)) error {
	w.Spawn(body)
	return w.K.Run()
}

// rankOf returns the Rank carrying a global (world) rank id owned by this
// world.
func (w *World) rankOf(world int) *Rank { return w.ranks[world-w.base] }

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int // world rank
	node int
	proc *sim.Proc

	inbox      []*message
	want       *recvWant
	collSeq    []commSeq // per-comm collective sequence numbers
	splitCount []commSeq // per-comm count of splits performed

	// op is the rank's collective in flight. The process is parked for the
	// whole collective, so there is at most one, and it lives here rather
	// than in a per-call allocation. It is allocated by the rank's first
	// collective, which keeps world construction as cheap as before.
	op *collOp

	// SendBusyUntil tracks when this rank's messaging layer finishes
	// injecting its queued sends; consecutive Isends serialize on it.
	sendBusyUntil float64
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// Proc returns the simulation process executing this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current simulation time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// World returns the runtime this rank belongs to.
func (r *Rank) World() *World { return r.w }

type message struct {
	src  int // world rank
	tag  int
	comm int
	buf  data.Buf
	dst  *Rank // delivery target; message implements sim.Hook
}

// Fire delivers the message to its destination rank; it runs in kernel
// context when the payload arrives off the torus. Implementing sim.Hook on
// the (pooled) message itself makes scheduling a delivery allocation-free.
func (m *message) Fire() { m.dst.deliver(m) }

// getMsg takes a message from the world's free list; Recv returns
// consumed messages with putMsg. The pool turns the per-send message+closure
// garbage — millions of objects per simulation — into a handful of live
// objects.
func (w *World) getMsg() *message {
	if n := len(w.msgPool); n > 0 {
		m := w.msgPool[n-1]
		w.msgPool = w.msgPool[:n-1]
		return m
	}
	return &message{}
}

func (w *World) putMsg(m *message) {
	*m = message{}
	w.msgPool = append(w.msgPool, m)
}

// sendHook performs a blocking send's physical movement — DMA injection,
// torus traversal, scheduling the delivery — at the instant the sender's
// software overhead ends. Running it as an event instead of inline after a
// Sleep lets Send yield exactly once (straight to local completion); the
// shared fabric state is still read and written at the same simulated time,
// in the same tie-break position, as the inline Isend path. A collective's
// send resumes the rank's continuation (op) instead of its process.
type sendHook struct {
	w         *World
	sender    *sim.Proc
	op        *collOp
	srcNode   int
	dst       *Rank
	localDone float64
	resume    float64 // localDone - fire time, precomputed at post time
	src       int
	tag       int
	comm      int
	buf       data.Buf
}

// Fire mirrors, operation for operation, what the sender used to execute
// inline after its overhead sleep: inject, route, schedule the delivery, then
// schedule its own resume at local completion. Each step draws its sequence
// number at the same instant as the inline code did, so every same-timestamp
// tie-break is preserved bit for bit. The resume delay is precomputed — the
// hook always fires exactly at the send-call instant, so localDone minus the
// clock is a constant the poster already knows.
func (h *sendHook) Fire() {
	w := h.w
	injDone := w.M.Net.Inject(h.localDone, h.srcNode, h.buf.Len())
	arrival := w.M.Net.Transfer(injDone, h.srcNode, h.dst.node, h.buf.Len())
	msg := w.getMsg()
	*msg = message{src: h.src, tag: h.tag, comm: h.comm, buf: h.buf, dst: h.dst}
	w.K.AtHook(arrival, msg)
	if h.op != nil {
		w.K.AfterHook(h.resume, h.op)
	} else {
		h.sender.UnparkAfter(h.resume)
	}
	*h = sendHook{}
	w.sendPool = append(w.sendPool, h)
}

func (w *World) getSendHook() *sendHook {
	if n := len(w.sendPool); n > 0 {
		h := w.sendPool[n-1]
		w.sendPool = w.sendPool[:n-1]
		return h
	}
	return &sendHook{}
}

// wakeHook resumes a parked process — or a rank's collective continuation,
// when op is set — after a fixed process-private delay. Scheduled exactly
// where the old code scheduled the process's intermediate wake, it fires
// inline in whichever dispatch loop pops it and assigns the final resume's
// sequence number at the same instant the woken process's own Sleep call
// used to — same tie-breaks, one handoff instead of two.
type wakeHook struct {
	w  *World
	p  *sim.Proc
	op *collOp
	d  float64
}

func (h *wakeHook) Fire() {
	if h.op != nil {
		h.w.K.AfterHook(h.d, h.op)
	} else {
		h.p.UnparkAfter(h.d)
	}
	w := h.w
	*h = wakeHook{}
	w.wakePool = append(w.wakePool, h)
}

func (w *World) getWakeHook() *wakeHook {
	if n := len(w.wakePool); n > 0 {
		h := w.wakePool[n-1]
		w.wakePool = w.wakePool[:n-1]
		return h
	}
	return &wakeHook{}
}

type recvWant struct {
	src      int // world rank or AnySource
	tag      int
	comm     int
	got      *message
	timedOut bool    // RecvTimeout's deadline fired before a match
	op       *collOp // the continuation posting it; nil for Recv
}

func (m *message) matches(want *recvWant) bool {
	return m.comm == want.comm && m.tag == want.tag &&
		(want.src == AnySource || want.src == m.src)
}

// deliver runs in kernel context when a message arrives at r. A rank blocked
// in Recv is woken directly past the receive overhead and copy time — it
// would only sleep through them before touching any shared state, so folding
// them into the wake halves the handoffs per matched receive.
func (r *Rank) deliver(m *message) {
	if want := r.want; want != nil && m.matches(want) {
		want.got = m
		r.want = nil
		h := r.w.getWakeHook()
		*h = wakeHook{w: r.w, p: r.proc, op: want.op, d: r.w.recvCost(m.buf.Len())}
		r.w.K.AfterHook(0, h)
		return
	}
	r.inbox = append(r.inbox, m)
}

// takeInbox removes and returns the earliest-arrived message matching want,
// or nil when none has arrived.
func (r *Rank) takeInbox(want *recvWant) *message {
	for i, m := range r.inbox {
		if m.matches(want) {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			return m
		}
	}
	return nil
}

// recvCost is the time a matched receive occupies the receiver: the
// software overhead plus copying the payload out.
func (w *World) recvCost(n int64) float64 {
	return w.cfg.RecvOverhead + float64(n)/w.cfg.LocalCopyBW
}

// sendDone reserves the rank's messaging pipeline for a send whose call
// overhead ends at tCall and returns its local completion time: the buffer
// handoff starts when both the call and the rank's earlier sends are done.
func (r *Rank) sendDone(tCall float64, n int64) float64 {
	copyStart := tCall
	if r.sendBusyUntil > copyStart {
		copyStart = r.sendBusyUntil
	}
	localDone := copyStart + float64(n)/r.w.cfg.LocalCopyBW
	r.sendBusyUntil = localDone
	return localDone
}

// postSend prices a blocking send of buf to communicator rank dst from
// rank-private state and schedules the pooled sendHook that touches the
// fabric when the call overhead ends. The hook resumes op at local
// completion, or the sending process when op is nil.
func (r *Rank) postSend(c *Comm, dst, tag int, buf data.Buf, op *collOp) {
	tCall := r.Now() + r.w.cfg.SendOverhead
	localDone := r.sendDone(tCall, buf.Len())
	h := r.w.getSendHook()
	*h = sendHook{
		w: r.w, sender: r.proc, op: op, srcNode: r.node, dst: r.w.rankOf(c.members[dst]),
		localDone: localDone, resume: localDone - tCall,
		src: r.id, tag: tag, comm: c.id, buf: buf,
	}
	r.w.K.AtHook(tCall, h)
}

// traceSend records a completed blocking send.
func traceSend(rec *trace.Recorder, rank int, t0, t1 float64, n int64) {
	rec.Span(trace.LayerMPI, "mpi.send", rank, t0, t1, n)
	rec.Add(trace.LayerMPI, "mpi.msgs", 1)
	rec.Add(trace.LayerMPI, "mpi.bytes", n)
}

// commSeq is one (communicator, counter) entry. A rank belongs to a handful
// of communicators at most, so a linear scan of a small slice beats the map
// these counters used to live in — they are bumped on every collective call.
type commSeq struct {
	comm int
	n    int
}

// bump returns the counter for comm and post-increments it.
func bump(list *[]commSeq, comm int) int {
	s := *list
	for i := range s {
		if s[i].comm == comm {
			n := s[i].n
			s[i].n = n + 1
			return n
		}
	}
	*list = append(s, commSeq{comm: comm, n: 1})
	return 0
}

// peekSeq returns the counter for comm without incrementing it.
func peekSeq(list []commSeq, comm int) int {
	for i := range list {
		if list[i].comm == comm {
			return list[i].n
		}
	}
	return 0
}

// Request represents an outstanding non-blocking send.
type Request struct {
	doneAt float64 // when the local buffer becomes reusable
	start  float64
	rank   int // issuing world rank, for the trace track
}

// Wait blocks until the operation completes locally.
func (req *Request) Wait(p *sim.Proc) {
	rec := p.Rec()
	if rec == nil {
		p.SleepUntil(req.doneAt)
		return
	}
	k := p.Kernel()
	t0 := p.Now()
	prev := k.SetLayer(trace.LayerMPI)
	p.SleepUntil(req.doneAt)
	rec.Span(trace.LayerMPI, "mpi.wait", req.rank, t0, p.Now(), 0)
	k.SetLayer(prev)
}

// LocalTime returns the duration the operation occupied the caller — the
// "perceived" cost of the send.
func (req *Request) LocalTime() float64 { return req.doneAt - req.start }

// Comm is a communicator: an ordered group of world ranks.
type Comm struct {
	w       *World
	id      int
	members []int // world ranks; index == comm rank
	ident   bool  // members[i] == off+i: comm rank is world rank minus off
	off     int   // the contiguous run's base when ident
}

// identOff reports whether members is a contiguous ascending run (base+i at
// index i), letting a world communicator — at any tenant base — and any
// split that reproduces one translate ranks without the binary search.
func identOff(members []int) (off int, ok bool) {
	if len(members) == 0 {
		return 0, false
	}
	off = members[0]
	for i, m := range members {
		if m != off+i {
			return 0, false
		}
	}
	return off, true
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Rank returns r's rank within the communicator, or -1 if not a member.
func (c *Comm) Rank(r *Rank) int {
	if c.ident {
		if i := r.id - c.off; i >= 0 && i < len(c.members) {
			return i
		}
		return -1
	}
	// members is sorted by construction; binary search.
	i := sort.SearchInts(c.members, r.id)
	if i < len(c.members) && c.members[i] == r.id {
		return i
	}
	return -1
}

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.members[commRank] }

// Isend posts a non-blocking eager send of buf to communicator rank dst with
// the given tag. It returns after the software overhead; the returned
// request completes when the payload has been handed off locally. The
// payload arrives at the destination after traversing the torus.
func (c *Comm) Isend(r *Rank, dst, tag int, buf data.Buf) *Request {
	doneAt, start := c.isend(r, dst, tag, buf)
	return &Request{doneAt: doneAt, start: start, rank: r.id}
}

func (c *Comm) isend(r *Rank, dst, tag int, buf data.Buf) (doneAt, start float64) {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: Isend to rank %d of %d-rank comm", dst, len(c.members)))
	}
	var prevLayer trace.Layer
	if r.w.rec != nil {
		prevLayer = r.w.K.SetLayer(trace.LayerMPI)
	}
	start = r.Now()
	// The call itself costs the software overhead; then the buffer handoff
	// serializes on the rank's local messaging pipeline.
	r.proc.Sleep(r.w.cfg.SendOverhead)
	localDone := r.sendDone(r.Now(), buf.Len())

	dstWorld := c.members[dst]
	dstRank := r.w.rankOf(dstWorld)
	// Physical movement: DMA injection, then the fabric.
	injDone := r.w.M.Net.Inject(localDone, r.node, buf.Len())
	arrival := r.w.M.Net.Transfer(injDone, r.node, dstRank.node, buf.Len())
	msg := r.w.getMsg()
	*msg = message{src: r.id, tag: tag, comm: c.id, buf: buf, dst: dstRank}
	r.w.K.AtHook(arrival, msg)
	if r.w.rec != nil {
		rec := r.proc.Rec()
		rec.Span(trace.LayerMPI, "mpi.isend", r.id, start, localDone, buf.Len())
		rec.Add(trace.LayerMPI, "mpi.msgs", 1)
		rec.Add(trace.LayerMPI, "mpi.bytes", buf.Len())
		r.w.K.SetLayer(prevLayer)
	}
	return localDone, start
}

// Send is a blocking send: semantically Isend followed by Wait, costed
// identically. Every input to the send pipeline — overhead end, buffer
// handoff, local completion — depends only on rank-private state, so Send
// computes them up front, posts a pooled sendHook to touch the fabric at the
// overhead-end instant, and yields once, straight to local completion.
func (c *Comm) Send(r *Rank, dst, tag int, buf data.Buf) {
	if dst < 0 || dst >= len(c.members) {
		panic(fmt.Sprintf("mpi: Send to rank %d of %d-rank comm", dst, len(c.members)))
	}
	var prevLayer trace.Layer
	var t0 float64
	if r.w.rec != nil {
		prevLayer = r.w.K.SetLayer(trace.LayerMPI)
		t0 = r.Now()
	}
	r.postSend(c, dst, tag, buf, nil)
	r.proc.Park() // the hook resumes us at localDone
	if r.w.rec != nil {
		traceSend(r.w.rec, r.id, t0, r.Now(), buf.Len())
		r.w.K.SetLayer(prevLayer)
	}
}

// RecvRequest is an outstanding non-blocking receive posted with Irecv.
type RecvRequest struct {
	c   *Comm
	r   *Rank
	src int // comm rank or AnySource
	tag int
}

// Irecv posts a non-blocking receive. The simulation's eager transport
// buffers arrivals in the rank's inbox, so posting early does not change
// matching; Irecv exists so rank code can be written in MPI's
// post-then-wait style. Complete it with Wait.
func (c *Comm) Irecv(r *Rank, src, tag int) *RecvRequest {
	if src != AnySource && (src < 0 || src >= len(c.members)) {
		panic(fmt.Sprintf("mpi: Irecv from rank %d of %d-rank comm", src, len(c.members)))
	}
	return &RecvRequest{c: c, r: r, src: src, tag: tag}
}

// Wait completes the receive, blocking until the matching message arrives.
func (rr *RecvRequest) Wait() (data.Buf, int) {
	return rr.c.Recv(rr.r, rr.src, rr.tag)
}

// Recv blocks until a message with the given source (comm rank, or
// AnySource) and tag arrives, and returns its payload and source comm rank.
func (c *Comm) Recv(r *Rank, src, tag int) (data.Buf, int) {
	if r.want != nil {
		panic("mpi: rank has a receive already outstanding")
	}
	var prevLayer trace.Layer
	var t0 float64
	if r.w.rec != nil {
		prevLayer = r.w.K.SetLayer(trace.LayerMPI)
		t0 = r.Now()
	}
	srcWorld := AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.members) {
			panic(fmt.Sprintf("mpi: Recv from rank %d of %d-rank comm", src, len(c.members)))
		}
		srcWorld = c.members[src]
	}
	want := &recvWant{src: srcWorld, tag: tag, comm: c.id}
	// First match against already-arrived messages, in arrival order.
	got := r.takeInbox(want)
	if got == nil {
		r.want = want
		r.proc.Park() // deliver's wakeHook resumes us past overhead and copy
		got = want.got
		buf, srcWorld := got.buf, got.src
		r.w.putMsg(got)
		if r.w.rec != nil {
			r.proc.Rec().Span(trace.LayerMPI, "mpi.recv", r.id, t0, r.Now(), buf.Len())
			r.w.K.SetLayer(prevLayer)
		}
		return buf, c.rankOfWorld(srcWorld)
	}
	buf, srcWorld := got.buf, got.src
	r.w.putMsg(got) // consumed: back to the pool before yielding
	r.proc.Sleep(r.w.recvCost(buf.Len()))
	if r.w.rec != nil {
		r.proc.Rec().Span(trace.LayerMPI, "mpi.recv", r.id, t0, r.Now(), buf.Len())
		r.w.K.SetLayer(prevLayer)
	}
	return buf, c.rankOfWorld(srcWorld)
}

// RecvTimeout is Recv with a deadline: it blocks until a matching message
// arrives or timeout simulated seconds pass, whichever is first. ok reports
// whether a message arrived; on timeout the posted receive is cancelled, so
// a message that shows up later simply lands in the inbox for a future
// receive to match (tags that encode the step keep strays harmless).
// Fault-aware checkpoint protocols use it to detect dead peers without
// deadlocking the group.
func (c *Comm) RecvTimeout(r *Rank, src, tag int, timeout float64) (data.Buf, int, bool) {
	if r.want != nil {
		panic("mpi: rank has a receive already outstanding")
	}
	var prevLayer trace.Layer
	var t0 float64
	if r.w.rec != nil {
		prevLayer = r.w.K.SetLayer(trace.LayerMPI)
		t0 = r.Now()
	}
	srcWorld := AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.members) {
			panic(fmt.Sprintf("mpi: RecvTimeout from rank %d of %d-rank comm", src, len(c.members)))
		}
		srcWorld = c.members[src]
	}
	want := &recvWant{src: srcWorld, tag: tag, comm: c.id}
	got := r.takeInbox(want)
	if got == nil {
		r.want = want
		r.w.K.After(timeout, func() {
			// Only cancel if this exact receive is still posted: the pointer
			// compare keeps a stale timer from touching a later receive.
			if r.want == want {
				r.want = nil
				want.timedOut = true
				r.proc.Unpark()
			}
		})
		r.proc.Park()
		if want.timedOut {
			if r.w.rec != nil {
				r.proc.Rec().Span(trace.LayerMPI, "mpi.recv.timeout", r.id, t0, r.Now(), 0)
				r.w.K.SetLayer(prevLayer)
			}
			return data.Buf{}, -1, false
		}
		got = want.got
		buf, srcWorld := got.buf, got.src
		r.w.putMsg(got)
		if r.w.rec != nil {
			r.proc.Rec().Span(trace.LayerMPI, "mpi.recv", r.id, t0, r.Now(), buf.Len())
			r.w.K.SetLayer(prevLayer)
		}
		return buf, c.rankOfWorld(srcWorld), true
	}
	buf, srcWorld := got.buf, got.src
	r.w.putMsg(got)
	r.proc.Sleep(r.w.recvCost(buf.Len()))
	if r.w.rec != nil {
		r.proc.Rec().Span(trace.LayerMPI, "mpi.recv", r.id, t0, r.Now(), buf.Len())
		r.w.K.SetLayer(prevLayer)
	}
	return buf, c.rankOfWorld(srcWorld), true
}

func (c *Comm) rankOfWorld(world int) int {
	if c.ident {
		if i := world - c.off; i >= 0 && i < len(c.members) {
			return i
		}
		return -1
	}
	i := sort.SearchInts(c.members, world)
	if i < len(c.members) && c.members[i] == world {
		return i
	}
	return -1
}

func (c *Comm) mustRank(r *Rank) int {
	me := c.Rank(r)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not a member of comm %d", r.id, c.id))
	}
	return me
}
