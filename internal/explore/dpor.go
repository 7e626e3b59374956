// Dynamic partial-order reduction: the DFS frontier loop and the body it
// runs for every prefix.
//
// Plain DFS would enumerate every untaken alternative at every branch
// point it passes — exponentially many interleavings that differ only in
// the order of commuting steps. DPOR expands a run into children only
// where the run *proved* order matters: after each run the recorded
// event trace (sched.Recorder.Events) is analyzed for race pairs —
// conflicting accesses by different threads that no other
// happens-before edge orders (monitor.Analysis) — and for each race the
// classic backtrack rule (Recorder.Candidates) names the threads
// that must be tried instead at the decision that started the race.
// Everything else commutes; one representative per interleaving class
// suffices for identical verdict sets.
//
// The frontier runs in rounds. Pending prefixes sit on one LIFO stack
// (see pending), seeded with the root (empty) prefix. A round pops the
// top dfsRoundWidth prefixes, runs them on the pool — each item does
// only what writes no shared state: building its prefix, the run, its
// race analysis and its list of proposed children — and then merges
// the results serially in pop order. Only the merge touches the
// sleep-set ledger, the counters and the stack, so the explored set,
// the budget cut and the progress stream are a function of the program
// and the options alone, at any worker count. At a round width of one
// the loop is plain sequential DFS: pop the deepest prefix, run it,
// push its children.
//
// Sleep sets: instead of carrying per-node sleep sets on the stack
// entries, the merge keeps one spawn ledger keyed by (decision-path
// hash, branch) — node identity is the exact decision sequence that
// reaches it, so the cumulative path hash names the node and childKey
// folds the branch in. The merge first marks the branch each run took
// at every node of its own path, then test-and-adds the run's proposed
// children, pushing only the ones not yet in the ledger. A branch
// explored or already scheduled anywhere in the tree is never
// re-spawned. The mark-before-spawn order matters: a child prefix is
// only pushed after its spawner ledgered its own choices, so a
// descendant proposing the spawner's branch always finds it marked.
//
// Runs whose event trace overflowed monitor.DefaultTraceLimit (spinning,
// budget-bound schedules) fall back to full alternative enumeration over
// their branch list, routed through the same ledger, because a truncated
// trace cannot prove commutativity for the steps it dropped. Such
// programs are not exhaustible anyway; the fallback keeps the reduction
// sound instead of silently unsound.
package explore

import (
	"context"
	"math"
	"sync"

	"parcoach/internal/interp"
	"parcoach/internal/monitor"
	"parcoach/internal/pipeline"
	"parcoach/internal/sched"
)

// dfsRoundWidth is how many pending prefixes one DFS round pops and runs
// on the pool. It is a constant, not the worker count: the round
// structure decides which prefixes a budget cut leaves unexplored, so
// deriving it from the width would make truncated reports depend on the
// machine. It also caps a DFS's parallelism at 16 workers.
const dfsRoundWidth = 16

// dporState is one item's reusable DPOR machinery: the recording
// scheduler (keeping every branch point, with its event trace), the
// vector-clock analysis, and the path-hash / candidate scratch buffers.
type dporState struct {
	rec   *sched.Recorder
	an    *monitor.Analysis
	path  []uint64
	cands []sched.ThreadID
}

var dporPool = sync.Pool{New: func() any {
	rec := &sched.Recorder{Keep: math.MaxInt, Events: new(monitor.EventTrace)}
	return &dporState{rec: rec, an: new(monitor.Analysis)}
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

// spawn is one child a run proposes: take thread q at decision d of
// the run's trace. key is its ledger entry. race marks a race reversal,
// which counts toward Report.SleepSkips when the ledger already holds
// it; an overflowed run's untaken alternative does not.
type spawn struct {
	key  uint64
	d    int
	q    sched.ThreadID
	race bool
}

// pending is a prefix on the stack, named by where it branches off an
// explored run: take thread q at decision d of runs[run]'s trace. The
// runs are kept for the report anyway, so the stack holds no copies of
// traces; the round item that runs the entry builds its prefix. run < 0
// names the root (empty) prefix.
type pending struct {
	run int
	d   int
	q   sched.ThreadID
}

// prefix builds the decision prefix p names.
func (p pending) prefix(runs []run) []sched.ThreadID {
	if p.run < 0 {
		return nil
	}
	return childPrefix(runs[p.run].trace, p.d, p.q)
}

// dporStep is one round item's result. marks are the ledger keys of
// the branches the run took beyond its prefix; marks and spawns stay
// empty for a run that spawns nothing. The slices are reused round
// after round by the item in the same slot.
type dporStep struct {
	run         run
	quarantined bool
	marks       []uint64
	spawns      []spawn
}

// dporFrontier explores sess's prefix tree in rounds (see the file
// comment) until the stack drains, the budget is spent with prefixes
// pending, or opts.Ctx is canceled. It returns the completed runs in
// merge order; leftover reports that some subtree went unexplored.
func dporFrontier(sess *interp.Session, opts Options, sink *progressSink) (runs []run, leftover bool, diverged, sleepSkips int) {
	ledger := make(map[uint64]struct{})
	stack := []pending{{run: -1}}
	var round [dfsRoundWidth]pending
	var steps [dfsRoundWidth]dporStep
	started := 0
	for len(stack) > 0 {
		n := min(dfsRoundWidth, len(stack), opts.Schedules-started)
		if ctxErr(opts.Ctx) != nil || n == 0 {
			return runs, true, diverged, sleepSkips
		}
		for i := range n {
			round[i] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		started += n
		// The items only read runs; the merge below appends to it.
		pipeline.Map(opts.Workers, n, func(i int) { steps[i].exec(opts.Ctx, sess, round[i].prefix(runs)) })

		for i := range n {
			step := &steps[i]
			if step.run.outcome == interp.OutcomeCanceled {
				// Aborted half-run: no verdict, and its subtree is lost.
				// The context is canceled, so no further round starts.
				leftover = true
				continue
			}
			runs = append(runs, step.run)
			sink.note(&runs[len(runs)-1])
			switch {
			case step.quarantined:
				// Panicked run: the subtree below its prefix goes
				// unexplored, so the report must not claim exhaustion.
				leftover = true
				continue
			case step.run.diverged:
				diverged++
				continue
			}
			// Mark the branches this run took BEFORE any spawning:
			// descendants proposing one of them must find it ledgered,
			// or an already-explored subtree would be re-spawned.
			for _, k := range step.marks {
				ledger[k] = struct{}{}
			}
			for _, sp := range step.spawns {
				if _, dup := ledger[sp.key]; dup {
					if sp.race {
						sleepSkips++
					}
					continue
				}
				ledger[sp.key] = struct{}{}
				stack = append(stack, pending{run: len(runs) - 1, d: sp.d, q: sp.q})
			}
		}
	}
	return runs, leftover, diverged, sleepSkips
}

// exec is the DPOR body of one round item: run the prefix, then list
// the ledger marks of the branches the run took beyond it and the
// reversals the run's race pairs require. It reads no state shared
// with the other items.
func (s *dporStep) exec(ctx context.Context, sess *interp.Session, prefix []sched.ThreadID) {
	s.marks, s.spawns = s.marks[:0], s.spawns[:0]
	if ctxErr(ctx) != nil {
		// Canceled before it started: skip the run.
		s.run, s.quarantined = run{outcome: interp.OutcomeCanceled}, false
		return
	}
	st := dporPool.Get().(*dporState)
	st.rec.Reset(prefix)
	s.run, s.quarantined = runOne(ctx, sess, st.rec)
	if s.quarantined {
		// Unknown state: the dporState is abandoned, never recycled. The
		// run is named by its prefix, which no other item shares.
		s.run.trace = prefix
		return
	}
	defer dporPool.Put(st)
	s.run.trace = st.rec.Trace()
	if s.run.outcome == interp.OutcomeCanceled || s.run.diverged {
		return
	}

	trace := s.run.trace
	branches := st.rec.Branches
	ph := st.pathHashes(trace)
	// The run followed its prefix exactly (it did not diverge), so the
	// marks along the prefix are already in the ledger: the spawner
	// marked its own path, and the last prefix decision is this run's
	// spawn key. Only the branches beyond the prefix are new.
	for bi := len(prefix); bi < len(branches); bi++ {
		s.marks = append(s.marks, childKey(ph[bi], trace[bi]))
	}

	if st.rec.Events.Overflowed() {
		// Truncated trace: commutativity beyond the limit is unprovable,
		// so propose every untaken alternative at every branch of this
		// run.
		for bi := range branches {
			b := &branches[bi]
			for _, alt := range b.Enabled {
				if alt != b.Chosen {
					s.spawns = append(s.spawns, spawn{key: childKey(ph[bi], alt), d: bi, q: alt})
				}
			}
		}
		return
	}

	st.an.Analyze(st.rec.Events)
	for _, rc := range st.an.Races() {
		_, d := st.rec.Events.At(rc.A)
		if d < 0 || d >= len(trace) {
			continue // forced decision: no alternative exists there
		}
		st.cands = st.rec.Candidates(st.an, rc, st.cands[:0])
		for _, q := range st.cands {
			s.spawns = append(s.spawns, spawn{key: childKey(ph[d], q), d: d, q: q, race: true})
		}
	}
}

// childPrefix builds the reversal prefix: follow trace up to depth d,
// then take alt.
func childPrefix(trace []sched.ThreadID, d int, alt sched.ThreadID) []sched.ThreadID {
	child := make([]sched.ThreadID, d+1)
	copy(child, trace[:d])
	child[d] = alt
	return child
}
