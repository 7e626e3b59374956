// Package mpi simulates the MPI substrate the paper's tool runs against:
// a fixed set of processes (simulated threads) joined by a world communicator
// with matched blocking collectives, synchronous point-to-point messages,
// and the four MPI threading-support levels.
//
// Unlike a production MPI, the simulator is also an oracle: the central
// matcher observes every call, so a run that would deadlock or corrupt on
// a cluster instead terminates deterministically with a precise error —
// mismatched collective kinds once all ranks arrive, concurrent collective
// calls from one process, or the deadlock report of the world's
// scheduling controller (internal/sched), the blocking kernel every wait
// of the run parks in, when some ranks exit while others wait. The
// collectives are one sched.Round over the ranks, whose last arrival
// computes the results into each call's CollCall record. The validator
// (internal/verifier) is expected to abort *earlier* with a better
// message; these runtime errors are the ground truth the test suite and
// the detection-matrix experiment compare against.
package mpi

import (
	"fmt"
	"strings"

	"parcoach/internal/sched"
)

// Op identifies a collective operation.
type Op int

// Collective operations.
const (
	OpBarrier Op = iota
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpAllgather
	OpScatter
	OpAlltoall
	OpScan
)

var opNames = [...]string{
	OpBarrier: "MPI_Barrier", OpBcast: "MPI_Bcast", OpReduce: "MPI_Reduce",
	OpAllreduce: "MPI_Allreduce", OpGather: "MPI_Gather",
	OpAllgather: "MPI_Allgather", OpScatter: "MPI_Scatter",
	OpAlltoall: "MPI_Alltoall", OpScan: "MPI_Scan",
}

// String returns the MPI_* name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "MPI_?"
}

// RedOp is a reduction operator.
type RedOp int

// Reduction operators.
const (
	RedSum RedOp = iota
	RedMin
	RedMax
	RedProd
)

// ParseRedOp maps the surface names; the empty string defaults to sum.
func ParseRedOp(name string) (RedOp, error) {
	switch name {
	case "", "sum":
		return RedSum, nil
	case "min":
		return RedMin, nil
	case "max":
		return RedMax, nil
	case "prod":
		return RedProd, nil
	}
	return RedSum, fmt.Errorf("mpi: unknown reduction op %q", name)
}

// Valid reports whether r is one of the defined reduction operators.
// Collective entry validates with this instead of letting an out-of-range
// op reach Apply.
func (r RedOp) Valid() bool { return r >= RedSum && r <= RedProd }

// Apply folds b into a under the operator. Out-of-range operators panic:
// every collective validates its op on entry, so an invalid op here is a
// matcher bug, not a user error — it must never silently reduce as sum.
func (r RedOp) Apply(a, b int64) int64 {
	switch r {
	case RedSum:
		return a + b
	case RedMin:
		if b < a {
			return b
		}
		return a
	case RedMax:
		if b > a {
			return b
		}
		return a
	case RedProd:
		return a * b
	}
	panic(fmt.Sprintf("mpi: RedOp(%d).Apply on unvalidated op", int(r)))
}

func (r RedOp) String() string {
	switch r {
	case RedMin:
		return "min"
	case RedMax:
		return "max"
	case RedProd:
		return "prod"
	}
	return "sum"
}

// ThreadLevel is the MPI threading support level.
type ThreadLevel int

// Thread levels, in increasing permissiveness. They start at 1, so the
// zero value means "not chosen" and a run defaults it.
const (
	ThreadSingle ThreadLevel = iota + 1
	ThreadFunneled
	ThreadSerialized
	ThreadMultiple
)

var levelNames = [...]string{
	ThreadSingle:     "MPI_THREAD_SINGLE",
	ThreadFunneled:   "MPI_THREAD_FUNNELED",
	ThreadSerialized: "MPI_THREAD_SERIALIZED",
	ThreadMultiple:   "MPI_THREAD_MULTIPLE",
}

func (l ThreadLevel) String() string {
	if l >= ThreadSingle && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return "MPI_THREAD_?"
}

// ParseThreadLevel maps a CLI name ("single", "funneled", "serialized",
// "multiple") to its level.
func ParseThreadLevel(name string) (ThreadLevel, error) {
	for l := ThreadSingle; l <= ThreadMultiple; l++ {
		if name == strings.ToLower(strings.TrimPrefix(levelNames[l], "MPI_THREAD_")) {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown thread level %q (want single|funneled|serialized|multiple)", name)
}

// Config configures a world.
type Config struct {
	// Procs is the number of MPI processes (ranks); must be >= 1.
	Procs int
	// Level is the threading support the "implementation" was asked for;
	// stricter levels enforce the standard's calling rules.
	Level ThreadLevel
}

// World is one simulated MPI job.
type World struct {
	cfg   Config
	ctl   *sched.Controller
	procs []*Proc

	// The collective matcher, touched only by the running thread: coll
	// is the round of the ranks' calls, calls holds each rank's call in
	// it, by rank (valid where Arrived), and free recycles the records of
	// returned calls.
	coll  *sched.Round
	calls []*CollCall
	free  []*CollCall

	// observer, if set, sees every completed collective round (all
	// contributions plus computed results) before the waiters wake; a
	// non-nil error aborts the run. Installed once (SetRoundObserver) and
	// deliberately NOT cleared by Reset, like the controller's analyzers.
	observer func(round int, calls []*CollCall) error

	// point-to-point state, touched only by the running thread: the
	// queues of blocked senders and receivers, and the free list their
	// records recycle through.
	sends    map[p2pKey][]*pending
	recvs    map[p2pKey][]*pending
	pendFree []*pending
}

// CollCall is one rank's call in a collective round: the call's
// arguments, the source vector snapshot taken at call time, the live
// source buffer it was taken from (nil for value-only collectives), and
// the results the round's last arrival computes. The caller owns it
// until it has read its results, so no later call of its rank, from any
// thread, can touch them.
type CollCall struct {
	Rank   int
	Op     Op
	Red    RedOp
	Root   int
	Value  int64
	Vector []int64 // snapshot of the source buffer at call time
	Live   []int64 // the caller's live source buffer, if any
	Loc    string

	OutValue  int64
	OutVector []int64
}

// SetRoundObserver installs the per-round collective observer (the
// verifier's value oracle). The hook runs on the round's last arriving
// thread after the round's results are computed but before any
// participant resumes; returning an error aborts the run with it. The
// calls come in rank order, are read-only, and are valid only during
// the call: their records recycle once their callers return. The
// observer survives Reset so pooled worlds stay instrumented across
// schedule-exploration runs. Install it between runs.
func (w *World) SetRoundObserver(fn func(round int, calls []*CollCall) error) { w.observer = fn }

// NewWorld creates a world with its own scheduling controller, which
// serializes its runs under the default schedule until Reset names
// another.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpi: world needs at least 1 process, got %d", cfg.Procs)
	}
	w := &World{
		cfg:   cfg,
		ctl:   sched.NewController(nil),
		calls: make([]*CollCall, cfg.Procs),
		sends: make(map[p2pKey][]*pending),
		recvs: make(map[p2pKey][]*pending),
	}
	for r := 0; r < cfg.Procs; r++ {
		w.procs = append(w.procs, &Proc{world: w, rank: r})
	}
	// A parked rank's open call is always call number Seq()+1: every
	// rank joins each round once.
	w.coll = sched.NewRound(w.ctl, cfg.Procs, "MPI collective", func(r int) string {
		c := w.calls[r]
		return fmt.Sprintf("rank %d: %s (call #%d)%s", r, c.Op, w.coll.Seq()+1, locSuffix(c.Loc))
	})
	w.ctl.AddAnalyzer(w.describeState)
	return w, nil
}

// Controller returns the world's scheduling controller, the blocking
// kernel the threading runtime and the verifier share, so every wait of
// a run is in one deadlock report.
func (w *World) Controller() *sched.Controller { return w.ctl }

// Reset rearms the world and its controller for a fresh run with the
// same configuration, driven by s (nil for the default schedule), so
// repeated runs of one program — schedule exploration — reuse the
// world, its processes and the controller's gates instead of rebuilding
// them per schedule. Registered deadlock analyzers survive the reset.
// Only call once the previous Run has returned and nothing outside the
// run can still interrupt it.
func (w *World) Reset(s sched.Scheduler) {
	w.ctl.Reset(s)
	w.coll.Reset(w.cfg.Procs)
	clear(w.calls)
	// Empty the queues but keep their keys and arrays, so the next run's
	// waits append without allocating.
	for _, m := range [2]map[p2pKey][]*pending{w.sends, w.recvs} {
		for k, q := range m {
			clear(q)
			m[k] = q[:0]
		}
	}
	for _, p := range w.procs {
		p.initialized = false
		p.finalized = false
		p.exited = false
		p.inMPI = 0
		p.mainThread = 0
	}
}

// Run executes body once per rank, each on its own thread of the
// world's scheduling controller, and returns the first error (abort,
// deadlock, or a body error). A nil return means every process
// completed. The threads are driven from the calling goroutine; the
// rank mains get thread ids 0..procs-1 in rank order. Run returns once
// every thread of the run, team workers included, has returned.
func (w *World) Run(body func(p *Proc) error) error {
	for _, p := range w.procs {
		w.ctl.Go(func() {
			if err := body(p); err != nil {
				w.ctl.Abort(err)
			}
			p.exited = true
		})
	}
	w.ctl.Drive()
	return w.ctl.Err()
}

// describeState contributes matcher context to deadlock reports.
func (w *World) describeState() []string {
	var lines []string
	for _, p := range w.procs {
		switch {
		case p.finalized:
			lines = append(lines, fmt.Sprintf("rank %d: finalized", p.rank))
		case p.exited:
			lines = append(lines, fmt.Sprintf("rank %d: exited without MPI_Finalize", p.rank))
		}
	}
	return append(lines, w.coll.Pending("collective", func(r int) string {
		return fmt.Sprintf("rank %d in %s", r, w.calls[r].Op)
	})...)
}
