package mpi

import (
	"fmt"
	"strings"

	"parcoach/internal/sched"
)

// Proc is one MPI process. Its methods are called by the interpreter (or
// directly by Go code using the library); collectives block until the
// whole world participates.
type Proc struct {
	world *World
	rank  int

	// The fields below are touched only by the running thread of the
	// world's run.
	initialized bool
	finalized   bool
	exited      bool
	// inMPI counts threads currently inside an MPI call (thread-level
	// enforcement); mainThread remembers which thread called MPI_Init.
	inMPI      int
	mainThread int64
}

// Rank returns the process rank in the world.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.cfg.Procs }

// Finalized reports whether MPI_Finalize was called (used by the verifier
// to skip end-of-function checks after finalization).
func (p *Proc) Finalized() bool { return p.finalized }

// UsageError is a violation of MPI calling rules (init/finalize ordering
// or thread-level discipline) — the class of error tools like Marmot
// report.
type UsageError struct {
	Rank int
	Msg  string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("mpi usage error on rank %d: %s", e.Rank, e.Msg)
}

// MismatchError reports that the ranks of a communicator disagreed on the
// collective operation of a round — the error class the paper's tool must
// catch before it becomes a deadlock.
type MismatchError struct {
	Round int
	// Calls maps rank to the operation it attempted.
	Calls map[int]string
}

func (e *MismatchError) Error() string {
	parts := make([]string, 0, len(e.Calls))
	for r := 0; r < len(e.Calls); r++ {
		if c, ok := e.Calls[r]; ok {
			parts = append(parts, fmt.Sprintf("rank %d: %s", r, c))
		}
	}
	return fmt.Sprintf("collective mismatch in round %d: %s", e.Round, strings.Join(parts, ", "))
}

// ConcurrentCallError reports two threads of one process inside
// simultaneous collective calls on the same communicator.
type ConcurrentCallError struct {
	Rank int
	OpA  string
	OpB  string
}

func (e *ConcurrentCallError) Error() string {
	return fmt.Sprintf("rank %d issued concurrent collective calls (%s and %s) on the same communicator",
		e.Rank, e.OpA, e.OpB)
}

// Init records MPI_Init; threadID identifies the calling thread for
// thread-level enforcement (the interpreter passes its thread handle id).
func (p *Proc) Init(threadID int64) error {
	if p.initialized {
		return &UsageError{Rank: p.rank, Msg: "MPI_Init called twice"}
	}
	p.initialized = true
	p.mainThread = threadID
	return nil
}

// Finalize records MPI_Finalize.
func (p *Proc) Finalize(threadID int64) error {
	if err := p.checkCall(threadID, "MPI_Finalize"); err != nil {
		return err
	}
	p.finalized = true
	return nil
}

// checkCall validates init/finalize ordering and the thread level
// for a call made by threadID.
func (p *Proc) checkCall(threadID int64, what string) error {
	if !p.initialized {
		return &UsageError{Rank: p.rank, Msg: what + " before MPI_Init"}
	}
	if p.finalized {
		return &UsageError{Rank: p.rank, Msg: what + " after MPI_Finalize"}
	}
	switch p.world.cfg.Level {
	case ThreadSingle, ThreadFunneled:
		if threadID != p.mainThread {
			return &UsageError{Rank: p.rank, Msg: fmt.Sprintf(
				"%s called from a non-main thread under %s", what, p.world.cfg.Level)}
		}
	case ThreadSerialized:
		if p.inMPI > 0 {
			return &UsageError{Rank: p.rank, Msg: fmt.Sprintf(
				"%s overlaps another MPI call under %s", what, p.world.cfg.Level)}
		}
	}
	return nil
}

// Collective performs op with this process's contribution and returns the
// process's result. Value/vector use depends on the operation (see the
// package comment of internal/interp for the mapping). loc is a source
// location for error messages.
func (p *Proc) Collective(threadID int64, op Op, red RedOp, root int, value int64, vector []int64, loc string) (int64, []int64, error) {
	return p.CollectiveLive(threadID, op, red, root, value, vector, nil, loc)
}

// CollectiveLive is Collective with the live source buffer the vector
// snapshot was read from, exposed to the round observer so the value
// oracle can detect a source torn by a concurrent write while the call
// was in flight. live may be nil (value-only collectives, or no oracle).
func (p *Proc) CollectiveLive(threadID int64, op Op, red RedOp, root int, value int64, vector, live []int64, loc string) (int64, []int64, error) {
	w := p.world
	ctl := w.ctl
	if err := ctl.Err(); err != nil {
		return 0, nil, err
	}
	if err := p.checkCall(threadID, op.String()); err != nil {
		ctl.Abort(err)
		return 0, nil, err
	}
	if root < 0 || root >= w.cfg.Procs {
		err := &UsageError{Rank: p.rank, Msg: fmt.Sprintf("%s root %d out of range", op, root)}
		ctl.Abort(err)
		return 0, nil, err
	}
	if !red.Valid() {
		err := &UsageError{Rank: p.rank, Msg: fmt.Sprintf("%s reduction op %d out of range", op, int(red))}
		ctl.Abort(err)
		return 0, nil, err
	}
	if w.coll.Arrived(p.rank) {
		err := &ConcurrentCallError{Rank: p.rank, OpA: w.calls[p.rank].Op.String(), OpB: op.String()}
		ctl.Abort(err)
		return 0, nil, err
	}
	p.inMPI++
	var c *CollCall
	if n := len(w.free); n > 0 {
		c, w.free = w.free[n-1], w.free[:n-1]
	} else {
		c = new(CollCall)
	}
	*c = CollCall{
		Rank: p.rank, Op: op, Red: red, Root: root,
		Value: value, Vector: append(c.Vector[:0], vector...),
		Live: live, Loc: loc,
	}
	w.calls[p.rank] = c
	last, err := w.coll.Join(p.rank)
	if last {
		// Validate, compute, let the observer audit the round, then
		// release the waiters.
		if err = w.validateRound(); err == nil {
			w.computeRound()
			if w.observer != nil {
				err = w.observer(w.coll.Seq(), w.calls)
			}
		}
		if err != nil {
			ctl.Abort(err)
		} else {
			w.coll.Release()
		}
	}
	p.inMPI--
	// Read the results, then recycle the record, pinning no buffer.
	out, outVector := c.OutValue, c.OutVector
	c.Live, c.OutVector = nil, nil
	w.free = append(w.free, c)
	if err != nil {
		return 0, nil, err
	}
	return out, outVector, nil
}

func locSuffix(loc string) string {
	if loc == "" {
		return ""
	}
	return " at " + loc
}

// validateRound checks that all arrived calls agree on op — and on
// root when no round observer is installed. With an observer present,
// root divergence is deliberately left to it: the value oracle reports a
// wrong-root as its own verdict class instead of the matcher's generic
// mismatch, while uninstrumented runs keep the ground-truth MismatchError.
func (w *World) validateRound() error {
	first := w.calls[0]
	agree := true
	checkRoot := w.observer == nil
	for _, c := range w.calls[1:] {
		if c.Op != first.Op || (checkRoot && c.Root != first.Root) {
			agree = false
		}
	}
	if agree {
		return nil
	}
	calls := make(map[int]string, len(w.calls))
	for r, c := range w.calls {
		s := c.Op.String()
		if c.Loc != "" {
			s += " at " + c.Loc
		}
		if opHasRoot(c.Op) {
			s += fmt.Sprintf(" (root %d)", c.Root)
		}
		calls[r] = s
	}
	return &MismatchError{Round: w.coll.Seq(), Calls: calls}
}

func opHasRoot(op Op) bool {
	switch op {
	case OpBcast, OpReduce, OpGather, OpScatter:
		return true
	}
	return false
}

// computeRound computes every rank's result into its call record. The
// round observer runs next, seeing contributions and results while
// every other participant is still parked.
func (w *World) computeRound() {
	n := w.cfg.Procs
	calls := w.calls
	op := calls[0].Op
	red := calls[0].Red
	root := calls[0].Root

	switch op {
	case OpBarrier:
		// synchronization only
	case OpBcast:
		v := calls[root].Value
		for _, c := range calls {
			c.OutValue = v
		}
	case OpReduce:
		acc := calls[0].Value
		for r := 1; r < n; r++ {
			acc = red.Apply(acc, calls[r].Value)
		}
		for r, c := range calls {
			if r == root {
				c.OutValue = acc
			} else {
				c.OutValue = c.Value
			}
		}
	case OpAllreduce:
		acc := calls[0].Value
		for r := 1; r < n; r++ {
			acc = red.Apply(acc, calls[r].Value)
		}
		for _, c := range calls {
			c.OutValue = acc
		}
	case OpScan:
		acc := int64(0)
		for r, c := range calls {
			if r == 0 {
				acc = c.Value
			} else {
				acc = red.Apply(acc, c.Value)
			}
			c.OutValue = acc
		}
	case OpGather:
		vec := make([]int64, n)
		for r, c := range calls {
			vec[r] = c.Value
		}
		calls[root].OutVector = vec
	case OpAllgather:
		vec := make([]int64, n)
		for r, c := range calls {
			vec[r] = c.Value
		}
		for _, c := range calls {
			c.OutVector = append([]int64(nil), vec...)
		}
	case OpScatter:
		src := calls[root].Vector
		for r, c := range calls {
			if r < len(src) {
				c.OutValue = src[r]
			}
		}
	case OpAlltoall:
		for r, c := range calls {
			out := make([]int64, n)
			for s, other := range calls {
				if r < len(other.Vector) {
					out[s] = other.Vector[r]
				}
			}
			c.OutVector = out
		}
	}
}

//
// Point-to-point (synchronous rendezvous)
//

type p2pKey struct {
	src, dst, tag int
}

// pending is a blocked sender's message or a blocked receiver's slot:
// gate is the blocked thread, and rank, op, peer, tag and loc name its
// call in the deadlock report. Records recycle through the world's free
// list, each with its detail closure built once.
type pending struct {
	value     int64
	gate      *sched.Gate
	rank      int
	op        string // "MPI_Send to" or "MPI_Recv from"
	peer, tag int
	loc       string
	detail    func() string
}

// describe is a parked call's deadlock-report detail.
func (pd *pending) describe() string {
	return fmt.Sprintf("rank %d: %s %d tag %d%s", pd.rank, pd.op, pd.peer, pd.tag, locSuffix(pd.loc))
}

// park queues the running thread's call under key in q and waits for
// its match, returning the value the match left in the record. The
// record goes back to the free list when the wait ends: by then no
// queue holds it, or the run has aborted, after which no call reads a
// queue and World.Reset empties them.
func (p *Proc) park(q map[p2pKey][]*pending, key p2pKey, reason, op string, peer, tag int, loc string, value int64) (int64, error) {
	w := p.world
	var pd *pending
	if n := len(w.pendFree); n > 0 {
		pd, w.pendFree = w.pendFree[n-1], w.pendFree[:n-1]
	} else {
		pd = new(pending)
		pd.detail = pd.describe
	}
	*pd = pending{value: value, gate: w.ctl.Running(), rank: p.rank, op: op, peer: peer, tag: tag, loc: loc, detail: pd.detail}
	q[key] = append(q[key], pd)
	p.inMPI++
	err := w.ctl.Wait(reason, pd.detail)
	p.inMPI--
	value = pd.value
	w.pendFree = append(w.pendFree, pd)
	return value, err
}

// match pops the head of the queue under key, nil when it is empty. The
// queue shifts in place, keeping its array's capacity.
func match(q map[p2pKey][]*pending, key p2pKey) *pending {
	s := q[key]
	if len(s) == 0 {
		return nil
	}
	pd := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	q[key] = s[:n]
	return pd
}

// Send delivers value to dest with the given tag, blocking until the
// receiver arrives (synchronous-mode semantics, like MPI_Ssend).
func (p *Proc) Send(threadID int64, value int64, dest, tag int, loc string) error {
	w := p.world
	ctl := w.ctl
	if err := ctl.Err(); err != nil {
		return err
	}
	if err := p.checkCall(threadID, "MPI_Send"); err != nil {
		ctl.Abort(err)
		return err
	}
	if dest < 0 || dest >= w.cfg.Procs {
		err := &UsageError{Rank: p.rank, Msg: fmt.Sprintf("MPI_Send destination %d out of range", dest)}
		ctl.Abort(err)
		return err
	}
	key := p2pKey{src: p.rank, dst: dest, tag: tag}
	if r := match(w.recvs, key); r != nil {
		r.value = value
		ctl.Wake(r.gate)
		return nil
	}
	_, err := p.park(w.sends, key, "MPI send", "MPI_Send to", dest, tag, loc, value)
	return err
}

// Recv blocks until a matching message from src with the given tag
// arrives and returns its payload.
func (p *Proc) Recv(threadID int64, src, tag int, loc string) (int64, error) {
	w := p.world
	ctl := w.ctl
	if err := ctl.Err(); err != nil {
		return 0, err
	}
	if err := p.checkCall(threadID, "MPI_Recv"); err != nil {
		ctl.Abort(err)
		return 0, err
	}
	if src < 0 || src >= w.cfg.Procs {
		err := &UsageError{Rank: p.rank, Msg: fmt.Sprintf("MPI_Recv source %d out of range", src)}
		ctl.Abort(err)
		return 0, err
	}
	key := p2pKey{src: src, dst: p.rank, tag: tag}
	if s := match(w.sends, key); s != nil {
		ctl.Wake(s.gate)
		return s.value, nil
	}
	v, err := p.park(w.recvs, key, "MPI recv", "MPI_Recv from", src, tag, loc, 0)
	if err != nil {
		return 0, err
	}
	return v, nil
}
