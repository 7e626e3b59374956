// Event-trace tagging for dynamic partial-order reduction.
//
// When the run's scheduler records an event trace (a sched.Recorder
// with Events, as the DFS explorer and the campaign run theirs), every
// thread context carries trace=true and tags the shared objects each
// statement touches onto its scheduling gate; the controller folds the
// tags into the run's event trace (monitor.EventTrace), which the
// exploration engine analyzes for race pairs after the run. A token
// replay's Recorder has no Events and runs untraced.
//
// The tagging discipline decides which schedules DPOR must explore, so
// it must over-approximate the true dependence relation (extra conflicts
// cost schedules; missing conflicts lose bugs):
//
//   - Shared-memory cells and array elements tag conflict-visible
//     reads/writes keyed by address (aliasing-exact).
//   - Every MPI call writes its rank's call slot: same-rank call order is
//     semantically visible (Init/Finalize sequencing, concurrent-call
//     detection, per-rank collective and p2p order), while *cross-rank*
//     arrival order into a collective round deliberately commutes — the
//     matcher's per-round state has one slot per rank and its mismatch
//     reports are arrival-order independent.
//   - Blocking rendezvous (collective rounds, p2p matches, CC agreement,
//     barriers, fork/join) add release/acquire happens-before edges keyed
//     by the matching round, so post-wait steps are ordered behind the
//     steps that caused the wake without manufacturing reversible races
//     (those orders are enforced by enabledness, not by scheduling luck).
//     Collective rounds and CC agreements share tagRoundEntry and
//     tagRoundDone, keyed by each rank's count of its calls of the kind.
//   - Schedule-sensitive elections tag writes on their decision slot:
//     single-construct first-arrival winners, critical-section
//     acquisition order, dynamic-for chunk claiming.
//
// Deliberately untagged (documented over-approximation *gaps*, all
// verdict-invisible): print output interleaving (Result.Output may
// differ across members of an interleaving class) and the global step
// counter (OutcomeBudget on spinning programs can trigger at different
// points; such runs are not exhaustible anyway).
package interp

import "parcoach/internal/monitor"

// Composite object kinds.
const (
	objMPI     uint64 = 2  // per-rank MPI call slot (W)
	objCollHB  uint64 = 3  // collective round handoff (Rel/Acq)
	objChanTag uint64 = 4  // p2p per-endpoint order (W) and handoff base
	objChanHB  uint64 = 6  // p2p match handoff (Rel/Acq)
	objSingle  uint64 = 7  // single-construct election slot (W)
	objBarHB   uint64 = 8  // barrier arrival slots (Rel/Acq)
	objCritQ   uint64 = 9  // critical acquisition order (W)
	objCritHB  uint64 = 10 // critical handoff (Rel/Acq)
	objDyn     uint64 = 11 // dynamic-for chunk counter (W)
	objForkHB  uint64 = 12 // parallel-region fork edge (Rel/Acq)
	objJoinHB  uint64 = 13 // parallel-region join edge (Rel/Acq)
	objVer     uint64 = 14 // per-rank verifier state (W)
	objCCHB    uint64 = 15 // CC agreement round handoff (Rel/Acq)
	objCell    uint64 = 16 // scalar cell, keyed by allocation id (R/W)
	objElem    uint64 = 17 // array element, keyed by array id and index (R/W)
)

// traceRT is the runner's tracing scratch: matching-round counters that
// key the release/acquire handoff objects. Only the running simulated
// thread touches it, so it takes no lock.
type traceRT struct {
	// collSeq[rank] counts the rank's collective calls: legal runs enter
	// collectives in lockstep rounds, so each rank's k-th call is round k.
	collSeq []uint64
	// ccSeq[rank] counts CC agreements the same way, a finalized rank's
	// skipped check included, so the verifier's round cannot key them.
	ccSeq []uint64
	// chanSeq counts sends and recvs per (src,dst,tag) endpoint; the
	// queues are FIFO on both sides, so the k-th recv matches the k-th
	// send.
	chanSeq map[monitor.Obj]uint64
	// regionSeq numbers parallel-region instances (fork/join/barrier
	// object keys must not collide across sequential regions).
	regionSeq uint64
	// allocSeq numbers cell and array allocations in schedule order.
	// Declarations only execute while their thread runs, so the
	// sequence — and with it every cell/element object id in the
	// trace — is a pure function of the schedule, not of which recycled
	// frames (and hence machine addresses) this run happened to draw.
	allocSeq uint64
}

func newTraceRT(procs int) *traceRT {
	return &traceRT{
		collSeq: make([]uint64, procs),
		ccSeq:   make([]uint64, procs),
		chanSeq: make(map[monitor.Obj]uint64),
	}
}

func (tr *traceRT) reset() {
	clear(tr.collSeq)
	clear(tr.ccSeq)
	clear(tr.chanSeq)
	tr.regionSeq = 0
	tr.allocSeq = 0
}

func (tr *traceRT) nextChan(endpoint monitor.Obj) uint64 {
	k := tr.chanSeq[endpoint]
	tr.chanSeq[endpoint] = k + 1
	return k
}

func (tr *traceRT) nextRegion() uint64 {
	k := tr.regionSeq
	tr.regionSeq++
	return k
}

// nextAlloc issues the next cell/array allocation id. Ids start at 1 so
// an unassigned (untraced) identity is distinguishable.
func (tr *traceRT) nextAlloc() uint64 {
	tr.allocSeq++
	return tr.allocSeq
}

// cellObj keys a scalar cell by its allocation id. Ids — not machine
// addresses — keep traces independent of frame recycling: a recycled
// cell is a fresh declaration and gets a fresh id, so aliasing across a
// cell's lifetimes cannot occur either.
func cellObj(cl *cell) monitor.Obj {
	return monitor.ObjID(objCell, cl.id, 0)
}

// elemObj keys an array element by the array's allocation id and the
// element index, which keeps element dependence exact under
// MiniHybrid's by-reference array aliasing (copies share arr and aid).
func elemObj(v value, idx int64) monitor.Obj {
	return monitor.ObjID(objElem, v.aid, uint64(idx))
}

func hashName(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// tag helpers: every call site guards with the plain c.trace bool so the
// untraced hot path pays one predictable branch and zero interface
// conversions.

func (c *thctx) tagRead(o monitor.Obj)  { c.gate.Access(o, monitor.AccRead) }
func (c *thctx) tagWrite(o monitor.Obj) { c.gate.Access(o, monitor.AccWrite) }
func (c *thctx) tagRel(o monitor.Obj)   { c.gate.Access(o, monitor.AccRelease) }
func (c *thctx) tagAcq(o monitor.Obj)   { c.gate.Access(o, monitor.AccAcquire) }

// tagMPIEntry marks a same-rank-ordered MPI call.
func (c *thctx) tagMPIEntry() {
	c.tagWrite(monitor.ObjID(objMPI, uint64(c.p.Rank()), 0))
}

// tagRoundEntry releases this rank's slot of its next round of a
// collective (objCollHB, collSeq) or CC agreement (objCCHB, ccSeq) and
// returns the round index for the post-return acquire.
func (c *thctx) tagRoundEntry(kind uint64, seq []uint64) uint64 {
	rank := c.p.Rank()
	k := seq[rank]
	seq[rank]++
	c.tagRel(monitor.ObjID(kind, uint64(rank), k))
	return k
}

// tagRoundDone acquires every rank's slot of round k: the completed
// rendezvous ordered this thread behind all contributing arrivals.
func (c *thctx) tagRoundDone(kind, k uint64) {
	for r := 0; r < c.p.Size(); r++ {
		c.tagAcq(monitor.ObjID(kind, uint64(r), k))
	}
}

// chanEndpoint keys one directed p2p endpoint; dir 0 = send, 1 = recv.
func chanEndpoint(src, dst, tag int, dir uint64) monitor.Obj {
	return monitor.ObjID(objChanTag, uint64(src)<<20|uint64(dst), uint64(tag)<<1|dir)
}

// tagSend orders same-endpoint sends and releases the match slot the
// k-th receiver will acquire.
func (c *thctx) tagSend(dst, tag int) {
	ep := chanEndpoint(c.p.Rank(), dst, tag, 0)
	c.tagWrite(ep)
	k := c.r.tr.nextChan(ep)
	c.tagRel(monitor.ObjID(objChanHB, uint64(ep), k))
}

// tagRecvEntry orders same-endpoint recvs and returns the match index.
func (c *thctx) tagRecvEntry(src, tag int) (sendEP monitor.Obj, k uint64) {
	recvEP := chanEndpoint(src, c.p.Rank(), tag, 1)
	c.tagWrite(recvEP)
	sendEP = chanEndpoint(src, c.p.Rank(), tag, 0)
	return sendEP, c.r.tr.nextChan(recvEP)
}

// tagRecvDone acquires the matching send's slot.
func (c *thctx) tagRecvDone(sendEP monitor.Obj, k uint64) {
	c.tagAcq(monitor.ObjID(objChanHB, uint64(sendEP), k))
}

// barSlot keys one thread's arrival slot of one team barrier phase.
func (c *thctx) barSlot(tid int, phase uint64) monitor.Obj {
	a := uint64(c.p.Rank())<<20 | uint64(tid)
	return monitor.ObjID(objBarHB, a, c.regionTag<<24|phase)
}

// barrier runs a team barrier with release/acquire bracketing: each
// arrival releases its own slot, each resume acquires every slot, so
// pre-barrier steps of all members happen-before post-barrier steps of
// all members — with no reversible conflicts among the (commuting)
// arrivals themselves. The team's phase at entry keys the slots.
func (c *thctx) barrier() error {
	phase := uint64(c.th.Team().Phase())
	if c.trace {
		c.tagRel(c.barSlot(c.th.TID(), phase))
	}
	err := c.th.Barrier()
	if err == nil && c.trace {
		for tid := range c.th.Team().Size() {
			c.tagAcq(c.barSlot(tid, phase))
		}
	}
	return err
}

// tagSingle marks a single-construct arrival: the first-arrival election
// is decided by arrival order, so arrivals conflict.
func (c *thctx) tagSingle(regionID int) {
	c.tagWrite(monitor.ObjID(objSingle, uint64(c.p.Rank())<<20|uint64(regionID), c.regionTag))
}

// tagDynNext marks a dynamic-for chunk claim (arrival-order dependent).
func (c *thctx) tagDynNext(regionID int) {
	c.tagWrite(monitor.ObjID(objDyn, uint64(c.p.Rank())<<20|uint64(regionID), c.regionTag))
}

func (c *thctx) critQObj(name string) monitor.Obj {
	return monitor.ObjID(objCritQ, uint64(c.p.Rank()), hashName(name))
}

func (c *thctx) critHObj(name string) monitor.Obj {
	return monitor.ObjID(objCritHB, uint64(c.p.Rank()), hashName(name))
}

// tagVerifier marks a same-rank-ordered verifier interaction
// (PhaseCount: entries of one phase conflict across threads; CC: a
// rank's announcements conflict across its threads).
func (c *thctx) tagVerifier() {
	c.tagWrite(monitor.ObjID(objVer, uint64(c.p.Rank()), 0))
}

func forkObj(rank int, region uint64) monitor.Obj {
	return monitor.ObjID(objForkHB, uint64(rank), region)
}

func joinObj(rank, tid int, region uint64) monitor.Obj {
	return monitor.ObjID(objJoinHB, uint64(rank)<<20|uint64(tid), region)
}
