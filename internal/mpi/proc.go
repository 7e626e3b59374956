package mpi

import (
	"fmt"

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
	callSeq    int
}

// Rank returns the process rank in the world.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.cfg.Procs }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

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
	return fmt.Sprintf("collective mismatch in round %d: %s", e.Round, joinComma(parts))
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

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
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

// pendingCall is one rank's contribution to the current collective round.
type pendingCall struct {
	op     Op
	red    RedOp
	root   int
	value  int64
	vector []int64
	// live is the caller's live source buffer the vector snapshot was
	// taken from; the round observer re-reads it to detect torn reads.
	live []int64
	loc  string

	// gate is the waiting rank's thread, nil for the round's last
	// arrival, which never waits.
	gate *sched.Gate
	// result slots filled by the completing rank
	outValue  int64
	outVector []int64
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
	if prev := w.arrived[p.rank]; prev != nil {
		err := &ConcurrentCallError{Rank: p.rank, OpA: prev.op.String(), OpB: op.String()}
		ctl.Abort(err)
		return 0, nil, err
	}
	p.inMPI++
	p.callSeq++
	pc := &pendingCall{
		op: op, red: red, root: root,
		value: value, vector: append([]int64(nil), vector...),
		live: live, loc: loc,
	}
	w.arrived[p.rank] = pc
	w.nArrived++

	if w.nArrived == w.cfg.Procs {
		// Last arrival: validate, compute, let the observer audit the
		// round, then release the waiters.
		if err := w.validateRound(); err != nil {
			p.inMPI--
			ctl.Abort(err)
			return 0, nil, err
		}
		w.computeRound()
		if w.observer != nil {
			if err := w.observer(w.round, w.observedRound()); err != nil {
				p.inMPI--
				ctl.Abort(err)
				return 0, nil, err
			}
		}
		w.finishRound()
		p.inMPI--
		return pc.outValue, pc.outVector, nil
	}

	callSeq := p.callSeq
	pc.gate = ctl.Running()
	err := ctl.Wait("MPI collective", func() string {
		return fmt.Sprintf("rank %d: %s (call #%d)%s", p.rank, op, callSeq, locSuffix(loc))
	})
	p.inMPI--
	if err != nil {
		return 0, nil, err
	}
	return pc.outValue, pc.outVector, nil
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
	first := w.arrived[0]
	agree := true
	checkRoot := w.observer == nil
	for _, pc := range w.arrived[1:] {
		if pc.op != first.op || (checkRoot && pc.root != first.root) {
			agree = false
		}
	}
	if agree {
		return nil
	}
	calls := make(map[int]string, len(w.arrived))
	for r, pc := range w.arrived {
		s := pc.op.String()
		if pc.loc != "" {
			s += " at " + pc.loc
		}
		if opHasRoot(pc.op) {
			s += fmt.Sprintf(" (root %d)", pc.root)
		}
		calls[r] = s
	}
	return &MismatchError{Round: w.round, Calls: calls}
}

func opHasRoot(op Op) bool {
	switch op {
	case OpBcast, OpReduce, OpGather, OpScatter:
		return true
	}
	return false
}

// computeRound computes every rank's result into the pending calls'
// out slots; finishRound then wakes the waiters. The round
// observer runs between the two, seeing contributions and results while
// every participant is still parked.
func (w *World) computeRound() {
	n := w.cfg.Procs
	calls := w.arrived
	op := calls[0].op
	red := calls[0].red
	root := calls[0].root

	switch op {
	case OpBarrier:
		// synchronization only
	case OpBcast:
		v := calls[root].value
		for _, pc := range calls {
			pc.outValue = v
		}
	case OpReduce:
		acc := calls[0].value
		for r := 1; r < n; r++ {
			acc = red.apply(acc, calls[r].value)
		}
		for r, pc := range calls {
			if r == root {
				pc.outValue = acc
			} else {
				pc.outValue = pc.value
			}
		}
	case OpAllreduce:
		acc := calls[0].value
		for r := 1; r < n; r++ {
			acc = red.apply(acc, calls[r].value)
		}
		for _, pc := range calls {
			pc.outValue = acc
		}
	case OpScan:
		acc := int64(0)
		for r, pc := range calls {
			if r == 0 {
				acc = pc.value
			} else {
				acc = red.apply(acc, pc.value)
			}
			pc.outValue = acc
		}
	case OpGather:
		vec := make([]int64, n)
		for r, pc := range calls {
			vec[r] = pc.value
		}
		calls[root].outVector = vec
	case OpAllgather:
		vec := make([]int64, n)
		for r, pc := range calls {
			vec[r] = pc.value
		}
		for _, pc := range calls {
			pc.outVector = append([]int64(nil), vec...)
		}
	case OpScatter:
		src := calls[root].vector
		for r, pc := range calls {
			if r < len(src) {
				pc.outValue = src[r]
			}
		}
	case OpAlltoall:
		for r, pc := range calls {
			out := make([]int64, n)
			for s, other := range calls {
				if r < len(other.vector) {
					out[s] = other.vector[r]
				}
			}
			pc.outVector = out
		}
	}
}

// observedRound snapshots the completed round for the observer.
func (w *World) observedRound() []CollCall {
	calls := make([]CollCall, 0, len(w.arrived))
	for r, pc := range w.arrived {
		calls = append(calls, CollCall{
			Rank: r, Op: pc.op, Red: pc.red, Root: pc.root,
			Value: pc.value, Vector: pc.vector, Live: pc.live, Loc: pc.loc,
			OutValue: pc.outValue, OutVector: pc.outVector,
		})
	}
	return calls
}

// finishRound wakes the round's waiters and rearms the matcher.
func (w *World) finishRound() {
	for _, pc := range w.arrived {
		if pc.gate != nil {
			w.ctl.Wake(pc.gate)
		}
	}
	clear(w.arrived)
	w.nArrived = 0
	w.round++
}

//
// Point-to-point (synchronous rendezvous)
//

type p2pKey struct {
	src, dst, tag int
}

// pendingSend and pendingRecv are a blocked sender's message and a
// blocked receiver's slot; gate is the blocked thread.
type pendingSend struct {
	value int64
	gate  *sched.Gate
}

type pendingRecv struct {
	value int64
	gate  *sched.Gate
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
	if q := w.recvs[key]; len(q) > 0 {
		r := q[0]
		w.recvs[key] = q[1:]
		r.value = value
		ctl.Wake(r.gate)
		return nil
	}
	p.inMPI++
	w.sends[key] = append(w.sends[key], &pendingSend{value: value, gate: ctl.Running()})
	err := ctl.Wait("MPI send", func() string {
		return fmt.Sprintf("rank %d: MPI_Send to %d tag %d%s", p.rank, dest, tag, locSuffix(loc))
	})
	p.inMPI--
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
	if q := w.sends[key]; len(q) > 0 {
		s := q[0]
		w.sends[key] = q[1:]
		ctl.Wake(s.gate)
		return s.value, nil
	}
	p.inMPI++
	pr := &pendingRecv{gate: ctl.Running()}
	w.recvs[key] = append(w.recvs[key], pr)
	err := ctl.Wait("MPI recv", func() string {
		return fmt.Sprintf("rank %d: MPI_Recv from %d tag %d%s", p.rank, src, tag, locSuffix(loc))
	})
	p.inMPI--
	if err != nil {
		return 0, err
	}
	return pr.value, nil
}
