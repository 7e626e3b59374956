// Dynamic partial-order reduction: the DFS body the work-stealing
// frontier (steal.go) runs for every prefix.
//
// Plain DFS would enumerate every untaken alternative at every branch
// point it passes — exponentially many interleavings that differ only in
// the order of commuting steps. DPOR expands a run into children only
// where the run *proved* order matters: after each run the recorded
// event trace (sched.DPORRecorder) is analyzed for race pairs —
// conflicting accesses by different threads that no other
// happens-before edge orders (monitor.Analysis) — and for each race the
// classic backtrack rule (DPORRecorder.Candidates) names the threads
// that must be tried instead at the decision that started the race.
// Everything else commutes; one representative per interleaving class
// suffices for identical verdict sets.
//
// Sleep sets, work-stealing-shaped: instead of carrying per-node sleep
// sets in the deque entries, the frontier keeps one global spawn ledger
// keyed by (decision-path hash, branch) — node identity is the exact
// decision sequence that reaches it, so the cumulative path hash names
// the node and childKey folds the branch in. Every run first marks the
// branch it took at each node of its own path, then its race analysis
// spawns only candidates whose (node, branch) is not yet in the ledger.
// That gives the sleep-set guarantee (a branch explored or already
// scheduled anywhere in the tree is never re-spawned, no matter which
// worker stole which subtree) without any per-entry state to migrate.
// The mark-before-spawn order matters: a child prefix is only pushed
// after its spawner ledgered its own choices, so a descendant proposing
// the spawner's branch always finds it marked.
//
// Determinism: without budget truncation the explored set is the DPOR
// fixpoint of the program — independent of worker count and steal
// order — so reports are byte-identical at any width.
//
// Runs whose event trace overflowed monitor.DefaultTraceLimit (spinning,
// budget-bound schedules) fall back to full alternative enumeration over
// their branch list, routed through the same ledger, because a truncated
// trace cannot prove commutativity for the steps it dropped. Such
// programs are not exhaustible anyway; the fallback keeps the reduction
// sound instead of silently unsound.
package explore

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"parcoach/internal/chaos"
	"parcoach/internal/interp"
	"parcoach/internal/monitor"
	"parcoach/internal/sched"
)

// dporState is one worker's reusable DPOR machinery: the recording
// scheduler (with its event trace), the vector-clock analysis, and the
// path-hash / candidate scratch buffers.
type dporState struct {
	rec   *sched.DPORRecorder
	an    *monitor.Analysis
	path  []uint64
	cands []sched.ThreadID
}

var dporPool = sync.Pool{New: func() any {
	return &dporState{rec: new(sched.DPORRecorder), an: new(monitor.Analysis)}
}}

// pathSeed is the hash of the empty decision path (the FNV offset
// basis, matching the hash family used everywhere else in the engine).
const pathSeed uint64 = 14695981039346656037

// pathHashes fills st.path with the cumulative decision-path hashes:
// path[i] names the tree node reached by decisions trace[:i], so
// childKey(path[i], q) names the (node, branch) pair of taking q there.
func (st *dporState) pathHashes(trace []sched.ThreadID) []uint64 {
	ph := append(st.path[:0], pathSeed)
	for _, id := range trace {
		ph = append(ph, childKey(ph[len(ph)-1], id))
	}
	st.path = ph
	return ph
}

// execDPOR is the DPOR body: run the prefix, mark its path in the
// ledger, then spawn exactly the reversal prefixes the run's race pairs
// require.
func (f *stealFrontier) execDPOR(w int, prefix []sched.ThreadID) {
	st := dporPool.Get().(*dporState)
	st.rec.Reset(prefix)
	dr, quarantined := f.runDPOR(st, prefix)
	if quarantined {
		// Panicked run: record the internal-error verdict, abandon the
		// dporState (unknown state, never recycled), spawn nothing. The
		// subtree below the prefix goes unexplored, so the frontier is
		// left over: the report must not claim exhaustion.
		f.results[w] = append(f.results[w], dr)
		f.sink.noteDFS(&f.results[w][len(f.results[w])-1])
		f.leftover.Store(true)
		return
	}
	if dr.outcome == interp.OutcomeCanceled {
		// Aborted half-run: no verdict, no reversals; wind down via the
		// ctx check in process.
		dporPool.Put(st)
		f.leftover.Store(true)
		f.end()
		return
	}
	f.results[w] = append(f.results[w], dr)
	f.sink.noteDFS(&f.results[w][len(f.results[w])-1])
	if dr.diverged {
		dporPool.Put(st)
		atomic.AddInt64(&f.diverged, 1)
		return
	}

	trace := dr.trace
	branches := st.rec.Branches
	ph := st.pathHashes(trace)

	// Mark the branch this run took at every node of its path BEFORE any
	// spawning: descendants proposing one of these branches must find it
	// ledgered, or an already-explored subtree would be re-spawned.
	for bi := range branches {
		f.ledger.TryAdd(childKey(ph[bi], trace[bi]))
	}

	if st.rec.Events.Overflowed() {
		// Truncated trace: commutativity beyond the limit is unprovable,
		// so expand every untaken alternative at every branch of this
		// run, deduped through the ledger.
		for bi := range branches {
			b := &branches[bi]
			for _, alt := range b.Enabled {
				if alt == b.Chosen || !f.ledger.TryAdd(childKey(ph[bi], alt)) {
					continue
				}
				f.pushChild(w, childPrefix(trace, bi, alt))
			}
		}
		dporPool.Put(st)
		return
	}

	st.an.Analyze(&st.rec.Events)
	for _, rc := range st.an.Races() {
		_, d := st.rec.Events.At(rc.A)
		if d < 0 || d >= len(trace) {
			continue // forced decision: no alternative exists there
		}
		st.cands = st.rec.Candidates(st.an, rc, st.cands[:0])
		for _, q := range st.cands {
			if !f.ledger.TryAdd(childKey(ph[d], q)) {
				atomic.AddInt64(&f.sleepSkips, 1)
				continue
			}
			f.pushChild(w, childPrefix(trace, d, q))
		}
	}
	dporPool.Put(st)
}

// runDPOR executes one DPOR prefix on st's recorder. It is a
// quarantine boundary: quarantined=true means the run panicked and
// dr carries the OutcomeInternalError verdict (and st must be abandoned,
// not recycled).
func (f *stealFrontier) runDPOR(st *dporState, prefix []sched.ThreadID) (dr dfsRun, quarantined bool) {
	defer func() {
		if r := recover(); r != nil {
			qerr := interp.NewQuarantineError("explore.run", r, debug.Stack())
			tr := make([]sched.ThreadID, len(prefix))
			copy(tr, prefix)
			dr = dfsRun{outcome: interp.OutcomeInternalError, runErr: qerr, trace: tr}
			quarantined = true
		}
	}()
	chaos.Here("explore.run")
	res := f.sess.RunCtx(f.opts.Ctx, st.rec)
	dr = dfsRun{outcome: res.Outcome(), runErr: res.Err, trace: st.rec.Trace(), diverged: st.rec.Diverged()}
	return dr, false
}

// childPrefix builds the reversal prefix: follow trace up to depth d,
// then take alt.
func childPrefix(trace []sched.ThreadID, d int, alt sched.ThreadID) []sched.ThreadID {
	child := make([]sched.ThreadID, d+1)
	copy(child, trace[:d])
	child[d] = alt
	return child
}
