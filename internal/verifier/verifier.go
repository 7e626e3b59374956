// Package verifier implements the execution-time half of the paper: the
// checks that the static instrumentation (internal/instrument) plants in
// the program and that stop execution "as soon as this situation is
// unavoidable", with an error message naming the collectives and source
// lines involved.
//
//   - CC is PARCOACH's collective check: before each (possibly divergent)
//     collective and before leaving a flagged function, every process
//     announces the id of its next operation; the round completes only if
//     all ids agree, otherwise the run aborts with the per-rank ids —
//     before the real collective can deadlock. The agreement is one
//     sched.Round over the ranks, the rendezvous the world's collectives
//     use too, with its own sequence: a rank's pending CC never stops
//     another of its threads from joining a collective.
//   - PhaseCount implements the dynamic validation of the paper's sets
//     S, Sipw and Scc: collective executions are counted per (process,
//     team, barrier phase); two executions by different threads in the
//     same phase are unordered and abort the run (multithreaded execution
//     of one collective node, or concurrent monothreaded regions). Runs
//     that stay single-threaded — team of one, tid-guarded calls,
//     master-only sequences — pass, clearing the static phase-1/2 false
//     positives. The team-size probes at Sipw parallel entries and the
//     brackets around Scc regions (ast.InstrMonoCheck, ast.InstrConcNote)
//     check nothing themselves: the phase counts of the collectives they
//     guard do.
package verifier

import (
	"fmt"
	"strings"

	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
	"parcoach/internal/source"
)

// ErrKind classifies verification failures.
type ErrKind int

// Verification error kinds.
const (
	// ErrCollectiveMismatch: processes disagreed on the next collective.
	ErrCollectiveMismatch ErrKind = iota
	// ErrMultithreadedCollective: one collective node executed by several
	// threads of a process in the same barrier phase.
	ErrMultithreadedCollective
	// ErrConcurrentCollectives: collectives of concurrent monothreaded
	// regions executed by different threads in the same barrier phase.
	ErrConcurrentCollectives
)

func (k ErrKind) String() string {
	switch k {
	case ErrCollectiveMismatch:
		return "collective-mismatch"
	case ErrMultithreadedCollective:
		return "multithreaded-collective"
	case ErrConcurrentCollectives:
		return "concurrent-collectives"
	}
	return "verifier-error"
}

// Error is a verification failure.
type Error struct {
	Kind    ErrKind
	Msg     string
	Pos     source.Pos
	Related []source.Pos
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verification error (%s)", e.Kind)
	if e.Pos.IsValid() {
		fmt.Fprintf(&b, " at %s", e.Pos)
	}
	fmt.Fprintf(&b, ": %s", e.Msg)
	return b.String()
}

// Verifier holds the dynamic-check state of one run.
type Verifier struct {
	ctl *sched.Controller

	// CC agreement: cc is the round over the ranks, and announced holds
	// each rank's announcement in it, by rank (valid where cc.Arrived).
	cc        *sched.Round
	announced []ccEntry

	// Phase counting: the counted executions of each live team's
	// current barrier phase. A team's entry goes when the team ends.
	phases map[teamKey]*teamPhase

	// Stats.
	ccChecks    int
	phaseChecks int
	valueChecks int
}

// ccEntry is one rank's announcement in the current CC round.
type ccEntry struct {
	op  string
	pos source.Pos
}

type teamKey struct {
	proc int
	team int64
}

// teamPhase holds the executions one team has counted in its current
// barrier phase. A count in a later phase replaces them: a team's phase
// only advances.
type teamPhase struct {
	phase   int
	entries []phaseEntry
}

type phaseEntry struct {
	thread int64
	tid    int
	nodeID int
	kind   string
	pos    source.Pos
}

// New creates a verifier for a world of nprocs processes whose runs
// ctl serializes (the world's controller).
func New(ctl *sched.Controller, nprocs int) *Verifier {
	v := &Verifier{
		ctl:       ctl,
		announced: make([]ccEntry, nprocs),
		phases:    make(map[teamKey]*teamPhase),
	}
	v.cc = sched.NewRound(ctl, nprocs, "CC check", func(r int) string {
		e := v.announced[r]
		return fmt.Sprintf("rank %d announced %s%s", r, e.op, posSuffix(e.pos))
	})
	ctl.AddAnalyzer(v.describeState)
	return v
}

// Reset clears all per-run state so the verifier can serve another run
// of the same world (its deadlock analyzer stays registered — the
// controller keeps analyzers across its own Reset). Only call between
// runs, after the previous run's World.Run returned.
func (v *Verifier) Reset() {
	v.cc.Reset(len(v.announced))
	clear(v.phases)
	v.ccChecks = 0
	v.phaseChecks = 0
	v.valueChecks = 0
}

// Stats reports how many checks executed (for the overhead experiments).
func (v *Verifier) Stats() (ccChecks, phaseChecks, valueChecks int) {
	return v.ccChecks, v.phaseChecks, v.valueChecks
}

func (v *Verifier) describeState() []string {
	return v.cc.Pending("CC", func(r int) string {
		return fmt.Sprintf("rank %d announced %s", r, v.announced[r].op)
	})
}

// CC performs the collective check: proc announces op (an MPI_* name,
// "call:<fn>", or "return:<fn>") and blocks until every process has
// announced; disagreement aborts the run. A finalized process announces
// nothing (its end-of-main check has nothing left to verify), so a peer
// still in a CC round with it ends in the deadlock report.
func (v *Verifier) CC(p *mpi.Proc, op string, pos source.Pos) error {
	ctl := v.ctl
	if err := ctl.Err(); err != nil {
		return err
	}
	if p.Finalized() {
		return nil
	}
	v.ccChecks++
	r := p.Rank()
	if v.cc.Arrived(r) {
		prev := v.announced[r]
		err := &Error{
			Kind: ErrConcurrentCollectives,
			Pos:  pos,
			Msg: fmt.Sprintf("rank %d entered CC for %s while its CC for %s is still pending: collectives issued concurrently",
				r, op, prev.op),
			Related: []source.Pos{prev.pos},
		}
		ctl.Abort(err)
		return err
	}
	v.announced[r] = ccEntry{op: op, pos: pos}
	if last, err := v.cc.Join(r); !last {
		return err
	}
	return v.completeCC()
}

func posSuffix(pos source.Pos) string {
	if !pos.IsValid() {
		return ""
	}
	return " at " + pos.String()
}

// completeCC validates the full round and wakes the waiters.
func (v *Verifier) completeCC() error {
	agree := true
	for _, e := range v.announced[1:] {
		agree = agree && e.op == v.announced[0].op
	}
	if !agree {
		var parts []string
		var related []source.Pos
		var pos source.Pos
		for r, e := range v.announced {
			parts = append(parts, fmt.Sprintf("rank %d: %s%s", r, e.op, posSuffix(e.pos)))
			if !pos.IsValid() {
				pos = e.pos
			} else {
				related = append(related, e.pos)
			}
		}
		err := &Error{
			Kind:    ErrCollectiveMismatch,
			Pos:     pos,
			Related: related,
			Msg: "processes are about to execute different collective sequences: " +
				strings.Join(parts, ", "),
		}
		v.ctl.Abort(err)
		return err
	}
	v.cc.Release()
	return nil
}

// PhaseCount records the execution of a flagged collective node by th in
// its current barrier phase and aborts when a second thread executes a
// counted collective in the same phase.
func (v *Verifier) PhaseCount(p *mpi.Proc, th *omp.Thread, nodeID int, kind string, pos source.Pos) error {
	ctl := v.ctl
	if err := ctl.Err(); err != nil {
		return err
	}
	v.phaseChecks++
	team := th.Team()
	key := teamKey{proc: p.Rank(), team: team.ID()}
	phase := team.Phase()
	tp := v.phases[key]
	if tp == nil {
		tp = &teamPhase{phase: phase}
		v.phases[key] = tp
	} else if tp.phase != phase {
		tp.phase = phase
		tp.entries = tp.entries[:0]
	}
	entry := phaseEntry{thread: th.ID(), tid: th.TID(), nodeID: nodeID, kind: kind, pos: pos}
	for _, prev := range tp.entries {
		if prev.thread == entry.thread {
			continue // same thread: ordered by program order
		}
		kindErr := ErrConcurrentCollectives
		msg := fmt.Sprintf(
			"collectives %s and %s executed by different threads (t%d and t%d) of rank %d in the same barrier phase, with no ordering between them",
			prev.kind, entry.kind, prev.tid, entry.tid, p.Rank())
		if prev.nodeID == entry.nodeID {
			kindErr = ErrMultithreadedCollective
			size := team.Size()
			msg = fmt.Sprintf(
				"%s executed by multiple threads (t%d and t%d) of rank %d in the same barrier phase (team of %d)",
				entry.kind, prev.tid, entry.tid, p.Rank(), size)
		}
		err := &Error{Kind: kindErr, Pos: pos, Related: []source.Pos{prev.pos}, Msg: msg}
		ctl.Abort(err)
		return err
	}
	tp.entries = append(tp.entries, entry)
	return nil
}

// EndTeam drops the phase counts of proc's team once every member has
// passed its join barrier: no member counts in it again, and team ids
// are never reused within a run.
func (v *Verifier) EndTeam(p *mpi.Proc, team int64) {
	delete(v.phases, teamKey{proc: p.Rank(), team: team})
}
