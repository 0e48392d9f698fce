package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// msgKind classifies an active message.
type msgKind uint8

const (
	// msgRequest: run a method on a target object, continuation attached.
	msgRequest msgKind = iota
	// msgReply: a value determining a remote continuation.
	msgReply
	// msgMigrate: a serialized object moving to a new home.
	msgMigrate
	// msgMoved: a path-compression notice — "ref now lives at loc".
	msgMoved
	// msgCkpt: a snapshot of one object's durable state, shipped from its
	// owner to its backup node (see recover.go).
	msgCkpt
	// msgCkptAck: the backup's acknowledgement that a snapshot version is
	// durably stored; releases the owner's deferred replies up to it.
	msgCkptAck
	// msgRestore: a stored snapshot shipped from the backup to a rejoined
	// owner, restoring a crash-lost object.
	msgRestore
)

// Msg is an active message: a request to run a method on a target object
// (carrying the continuation for the result), a reply determining a
// continuation, or one of the migration-protocol messages. The simulator is
// single-address-space, so messages carry pointers, but all serialization
// and transport costs are charged per the machine model and remote state is
// only ever touched by its owner.
type Msg struct {
	kind   msgKind
	method *Method
	target Ref
	args   []Word
	cont   Cont

	val Word

	// from is the node that originated the request (for moved notices);
	// hops counts forwarding re-routes (traced, and a chain-length check).
	from int32
	hops int32

	// obj is the payload of a msgMigrate; loc/ver the address and residence
	// version carried by a msgMoved. A forwarded request carries in ver the
	// residence version of the stub that last forwarded it.
	obj *Object
	loc int32
	ver int32

	// ckptBatch carries the checkpoint-protocol payloads (msgCkpt,
	// msgCkptAck, msgRestore): per-object snapshots — words copied at
	// snapshot time, so later mutations of the live state never leak into
	// a checkpoint already on the wire — batched into one bulk transfer,
	// so protocol cost is bounded by the shipped state's size plus one
	// message, not by the object count. Acks carry versions only.
	ckptBatch []ckptItem

	// wireFrom/wireSeq/wireWords identify the message's latest physical
	// transmission for trace correlation: the sending node, its per-link
	// sequence number, and the modeled payload words. Stamped by rt.send
	// (re-stamped when a forwarding stub re-sends), consumed by the
	// delivery-side KMsgRecv event. Tracing-only: the protocol never reads
	// them.
	wireFrom  int32
	wireSeq   uint32
	wireWords int32

	// safeAt is set while a sent frame waits on its sender's retire list:
	// the time after which no copy of it can still be on the wire.
	safeAt sim.Time

	next *Msg
}

// Message ownership. A Msg comes from its sending node's free list
// (newMsg) and is handed to the transport by rt.send; the sender never
// touches it again. Without the reliable layer the transport delivers it
// exactly once and the destination owns it from arrival: its handler
// returns it to the destination's free list at its last use (freeMsg) —
// after a reply determines its continuation, a request's arguments are
// copied into the activation, or a migration or moved notice is applied.
// A request that forwards or parks is still in use and is not released.
// With the reliable layer the sender's link frame keeps the wire message
// for retransmission and the receiver takes a copy of it on acceptance
// (see recvFrame); the copy is released like an unreliable delivery, and
// the wire message goes onto the sender's retire list once acked, to be
// reused when no duplicate of it can still arrive. Messages on paths that
// never release (crash-discarded inboxes, reset links, checkpoint traffic)
// are left to the garbage collector: never releasing is always safe.

// newMsg returns a zeroed message from n's free list, its retire list, or
// its message slab. Its args slice is empty but keeps the backing array of
// its previous use.
func (n *NodeRT) newMsg() *Msg {
	m := n.msgFree
	if m != nil {
		n.msgFree = m.next
		m.next = nil
		return m
	}
	if m = n.retired.head; m != nil && m.safeAt < n.Sim.Now() {
		n.retired.pop()
		*m = Msg{args: m.args[:0]}
		return m
	}
	return n.msgs.alloc()
}

// freeMsg returns m to n's free list at its last use, dropping the
// references it holds.
func (n *NodeRT) freeMsg(m *Msg) {
	*m = Msg{args: m.args[:0], next: n.msgFree}
	n.msgFree = m
}

// setArgs copies args into m, reusing m's argument words when they are
// big enough and carving new ones from n's word slab otherwise.
func (n *NodeRT) setArgs(m *Msg, args []Word) {
	if cap(m.args) < len(args) {
		m.args = n.pool.words.take(len(args))
	}
	m.args = m.args[:len(args)]
	copy(m.args, args)
}

// copyMsg makes dst (a message of n's) a copy of src with its own
// argument words.
func (n *NodeRT) copyMsg(dst, src *Msg) {
	args := dst.args
	*dst = *src
	dst.args, dst.next = args, nil
	n.setArgs(dst, src.args)
}

// words returns the modeled payload size in words: header (method id,
// target, continuation) plus arguments.
func (m *Msg) words() int {
	switch m.kind {
	case msgReply:
		return 2 // continuation + value: a single packet
	case msgMigrate:
		return 4 + migrateWords(m.obj.State)
	case msgMoved:
		return 3 // ref + new location: a single packet
	case msgCkpt, msgRestore:
		w := 1 // object count
		for _, it := range m.ckptBatch {
			w += 3 + len(it.words) // ref + version + payload each
		}
		return w
	case msgCkptAck:
		return 1 + 2*len(m.ckptBatch) // count + (ref, acked version) each
	}
	return 4 + len(m.args)
}

// msgQueue is a FIFO of messages.
type msgQueue struct {
	head, tail *Msg
	n          int
}

func (q *msgQueue) push(m *Msg) {
	m.next = nil
	if q.tail == nil {
		q.head = m
	} else {
		q.tail.next = m
	}
	q.tail = m
	q.n++
}

func (q *msgQueue) pop() *Msg {
	m := q.head
	if m == nil {
		return nil
	}
	q.head = m.next
	if q.head == nil {
		q.tail = nil
	}
	m.next = nil
	q.n--
	return m
}

// sendRequest transmits a method invocation toward the target's believed
// owner (dest). The sender pays injection overhead; the receiver pays
// handler overhead on arrival (in handleMsg) and re-routes if the object
// has since migrated.
func (rt *RT) sendRequest(from *NodeRT, m *Method, target Ref, args []Word, cont Cont, dest int) {
	msg := from.newMsg()
	msg.method, msg.target, msg.cont, msg.from = m, target, cont, int32(from.ID)
	from.setArgs(msg, args)
	w := msg.words()
	if w > DefaultMaxMsgWords {
		panic(fmt.Sprintf("core: oversized message for %s: %d words (limit %d)", m.Name, w, DefaultMaxMsgWords))
	}
	from.charge(instr.OpMsg, rt.Model.MsgSendBase+rt.Model.MsgPerWord*instr.Instr(w))
	rt.send(from, rt.Nodes[dest], msg)
}

// sendReply transmits a value determining a remote continuation.
func (rt *RT) sendReply(from *NodeRT, cont Cont, val Word) {
	msg := from.newMsg()
	msg.kind, msg.cont, msg.val, msg.from = msgReply, cont, val, int32(from.ID)
	from.charge(instr.OpMsg, rt.Model.ReplySend)
	from.Stats.Replies++
	rt.send(from, rt.Nodes[cont.Node], msg)
}

// handleMsg processes one arrived message on node n, releasing it at its
// last use. Requests are first routed: if the target no longer lives here
// (it migrated away) the message takes a forwarding hop; if it is in
// flight to this node the message parks until it arrives. For requests
// that resolve locally under the hybrid model with wrappers enabled, the
// stack version of the method is executed directly from the message buffer
// (Section 3.3) — "a remote message can be processed entirely on the
// stack". Otherwise a heap context is allocated and scheduled, which is
// what the parallel-only baseline always does.
func (rt *RT) handleMsg(n *NodeRT, msg *Msg) {
	mdl := rt.Model
	switch msg.kind {
	case msgReply:
		n.charge(instr.OpMsg, mdl.ReplyRecv)
		cont, val := msg.cont, msg.val
		n.freeMsg(msg)
		rt.deliverLocal(n, cont, val, false)
		return
	case msgMigrate:
		rt.handleMigrate(n, msg)
		n.freeMsg(msg)
		return
	case msgMoved:
		rt.handleMoved(n, msg)
		n.freeMsg(msg)
		return
	case msgCkpt:
		rt.handleCkpt(n, msg)
		return
	case msgCkptAck:
		rt.handleCkptAck(n, msg)
		return
	case msgRestore:
		rt.handleRestore(n, msg)
		return
	}
	m := msg.method
	if m == nil {
		panic(fmt.Sprintf("core: malformed request on node %d: nil method, target=%v args=%d",
			n.ID, msg.target, len(msg.args)))
	}
	e, has := n.entry(msg.target)
	if !has || (e.away && msg.hops > 0 && e.fwdVer <= msg.ver) {
		// No entry means the object is in flight to this node (every node
		// it ever lived on keeps at least a stub): hold until it arrives.
		// So does a stub no newer than the residence the request was
		// forwarded here for: it predates the object's return to this
		// node, and following it would send the request back along the
		// chain it came from — residence versions must strictly increase
		// along a forwarding path.
		n.charge(instr.OpMsg, mdl.MsgRecvBase)
		n.park(msg)
		return
	}
	if e.away {
		rt.forwardRequest(n, msg, e)
		return
	}
	obj := e
	n.charge(instr.OpMsg, mdl.MsgRecvBase+mdl.MsgPerWord*instr.Instr(msg.words()))
	rt.noteAccess(n, obj, int(msg.from), false)

	if rt.Cfg.Hybrid && rt.Cfg.Wrappers {
		rt.runWrapper(n, m, obj, msg)
		return
	}
	// Parallel-only path: allocate and schedule a heap context.
	cf := rt.newHeapFrame(n, m, msg.target, msg.args, msg.cont)
	n.freeMsg(msg)
	rt.scheduleOrPark(n, cf)
}

func methodName(m *Method) string {
	if m == nil {
		return "<nil>"
	}
	return m.Name
}

// DefaultMaxMsgWords bounds a single active message's modeled payload; a
// real runtime would fragment beyond this, which the model does not —
// exceeding it is a programming error.
const DefaultMaxMsgWords = 4096

// runWrapper executes an arrived request through the schema-specific
// wrapper (Figure 8): the stack version runs straight out of the buffer,
// with the message's continuation standing in for the caller:
//
//   - NB: the body runs and its reply (if any — reactive computations may
//     not produce one) is passed to the waiting future via the continuation;
//   - MB: additionally, if the method blocks, the continuation is placed in
//     the lazily-created callee context;
//   - CP: a proxy context supplies caller_info saying the context exists
//     and the continuation was forwarded, so lazy capture just extracts it.
func (rt *RT) runWrapper(n *NodeRT, m *Method, obj *Object, msg *Msg) {
	if m.Locks {
		n.charge(instr.OpCheck, rt.Model.LockCheck)
		if obj.Locked() {
			// Cannot run from the buffer: park a heap context on the lock.
			cf := rt.newHeapFrame(n, m, msg.target, msg.args, msg.cont)
			n.freeMsg(msg)
			rt.parkOnLock(n, obj, cf)
			return
		}
	}
	n.Stats.WrapperRuns++
	rt.traceEvent(n, uint8(trace.KWrapper), m, 0)
	n.charge(instr.OpCall, rt.Model.CCall+rt.Model.CArgWord*instr.Instr(len(msg.args)))
	rt.chargeSchema(n, m.Emitted)

	cf := n.pool.checkout(m, n, msg.target, msg.args)
	cf.RetCont = msg.cont
	n.freeMsg(msg)
	switch rt.runSeq(n, cf, obj, CallerInfo{CtxExists: true, Forwarded: true}) { // proxy context
	case Done:
		rt.complete(n, cf)
	case Unwound:
		// MB wrapper case: the continuation is (already) linked into the
		// callee's lazily-created context.
		n.charge(instr.OpFallback, rt.Model.LinkCont)
	case Forwarded:
		rt.retire(n, cf)
	}
}
