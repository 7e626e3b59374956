// Package campaign is the corpus-driven exploration campaign engine:
// it runs many generated MiniHybrid programs (internal/mhgen),
// Options.Workers compiles and runs at a time, and allocates schedule
// budget by marginal coverage instead of uniformly.
//
// The campaign keeps a frontier of corpus entries scored by recent
// coverage yield: the number of novel coverage keys (see coverage.go)
// an entry's schedules produced in its last active round, per
// schedule. Each round, every entry gets a share of the per-round
// budget proportional to its rate relative to the round's best;
// entries whose share rounds to zero are parked, and after enough
// consecutive parked rounds they retire, their budget flowing to where
// coverage still grows. Two mutation channels grow the corpus: mhgen seed
// neighborhoods (rotated bug class, flipped size, displaced seed) for
// entries that yield, and schedule-prefix splicing — the decision
// prefix of a run that reached novel coverage is replayed with each
// untaken alternative at its deepest novel branch, the same child
// expansion the DFS/DPOR explorer performs, rooted at schedules that
// proved interesting. Committed mutant reproducers are minimized with
// mhgen.Reduce before they enter the final corpus.
//
// A run follows its spliced prefix, then a seeded uniform random tail,
// with the sched.Recorder that DFS and token replay use (tracer.go). A
// reduction candidate whose replay of the failing token diverges is not
// kept.
//
// Determinism contract: a campaign is a pure function of its Options.
// Each round plans jobs in corpus order, runs them concurrently (runs
// are pure functions of (program, schedule seed, prefix)), and merges
// results serially in job order — every coverage-set update, mutation
// admission and splice decision happens in the merge, so reports are
// byte-identical at any worker count.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"time"

	"parcoach/internal/chaos"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/pipeline"
	"parcoach/internal/sched"
)

// Compiled is what the injected compiler returns for one corpus entry:
// a reusable run session over the (instrumented) program and the
// static warning kinds of its compile-time verification. The session
// must be safe for concurrent Run calls, as parcoach sessions are.
type Compiled struct {
	Session     *interp.Session
	StaticKinds []string
}

// CompileFunc compiles one generated program for campaign execution.
// The root package wires this to the full compile pipeline on the
// campaign's pool (parcoach.Campaign); tests may inject lighter
// pipelines.
type CompileFunc func(gp *mhgen.Program) (*Compiled, error)

// Options configures a campaign.
type Options struct {
	// Seeds are the mhgen generation seeds of the initial corpus
	// (mhgen.FromSeed each).
	Seeds []uint64
	// Budget is the total number of schedules the campaign may run
	// across the whole corpus (default 16 × len(Seeds)).
	Budget int
	// Seed is the campaign master seed: every schedule seed derives
	// from (Seed, entry id, schedule index).
	Seed uint64
	// Workers is how many compiles and runs Run executes at once (0 =
	// GOMAXPROCS). Reports do not depend on it.
	Workers int
	// Uniform switches to the linear-sweep baseline: one schedule per
	// entry per round until the budget is spent, with no retirement, no
	// mutation and no splicing. The coverage signal and the schedule
	// streams are identical to the campaign's, so the two trajectories
	// are directly comparable.
	Uniform bool
	// NoReduce skips mhgen.Reduce minimization of committed mutant
	// reproducers (reduction changes the corpus listing, never the
	// coverage trajectory).
	NoReduce bool
	// RunTimeout, when positive, is the per-run wall-clock watchdog the
	// caller's CompileFunc arms on every session it builds (wedged runs
	// classify as timeout instead of hanging the campaign).
	RunTimeout time.Duration

	// Ctx, when non-nil, cancels the campaign: the context is checked
	// between rounds and per job, and in-flight runs are aborted through
	// the interpreter's RunCtx guard. A canceled campaign returns a
	// well-formed partial report (Report.Canceled) reducing only the
	// rounds that merged completely — a half-merged round would break
	// the determinism contract, so the interrupted round's results are
	// dropped.
	Ctx context.Context
	// Checkpoint, when set, is a file path the campaign atomically
	// rewrites (every CheckpointEvery rounds, default 1) with everything
	// needed to resume: the coverage set, every entry's state, the tally.
	// Programs are NOT serialized — they are regenerated from their
	// mhgen configs on resume, which is why checkpoints stay small.
	Checkpoint string
	// CheckpointEvery is the round cadence of checkpoint writes
	// (default 1 when Checkpoint is set).
	CheckpointEvery int
	// Resume, when set, loads a checkpoint file before running and
	// continues from its round. The checkpoint's option fingerprint must
	// match; a resumed campaign's final report is byte-identical to an
	// uninterrupted run of the same Options (the determinism contract
	// extended across the interruption).
	Resume string
	// HaltAfterRound, when > 0, stops the campaign deterministically
	// after that many completed rounds, writing a final checkpoint
	// (Checkpoint must be set). This is the kill switch the
	// checkpoint/resume smoke uses: a deterministic halt point instead
	// of a flaky mid-write kill.
	HaltAfterRound int
}

// The allocation policy.
const (
	// runsPerSeed sets the default budget: 16 schedules per seed.
	runsPerSeed = 16
	// initialAlloc is the round-0 schedule allocation per entry: one
	// probe run per program suffices to rank entries, and every extra
	// probe is budget the leaders never get back.
	initialAlloc = 1
	// maxPerRound is the per-round allocation of the round's
	// best-yielding entry; every other entry gets a proportional share
	// of it. Deliberately tight: with a cap of 2 only entries within half
	// the best rate run at all, which concentrates the budget on the
	// steepest coverage growth (the measured sweep: cap 2 ≈ 3.4× over the
	// linear baseline, cap 8 ≈ 2.2×, cap 32 ≈ 1.6×).
	maxPerRound = 2
	// dryRounds is how many consecutive parked rounds (relative yield
	// rate rounding to a zero allocation) retire an entry for good: long
	// enough for the revisit trickle to probe a parked entry a couple
	// more times before giving up on it.
	dryRounds = 8
	// corpusPerSeed caps the corpus, mutants included, at twice the
	// seed count.
	corpusPerSeed = 2
)

func (o *Options) defaults() {
	if o.Budget <= 0 {
		o.Budget = runsPerSeed * len(o.Seeds)
	}
	if o.Checkpoint != "" && o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
}

// ctxErr is context.Cause tolerant of a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return context.Cause(ctx)
}

// entry is one corpus member and its frontier bookkeeping.
type entry struct {
	id   int // admission order: the determinism anchor
	gp   *mhgen.Program
	hash uint64 // source hash: the program half of every coverage key
	comp *Compiled

	roundYield int // novel keys this round (reset at round end)
	alloc      int // schedules planned this round

	entryState
}

// entryState is the part of an entry a checkpoint persists, written as
// it is. The program is regenerated from the Config; everything derived
// from its source (hash, compile, static kinds) is recomputed.
type entryState struct {
	mhgen.Config        // generation config (mutation neighborhood root)
	Origin       string `json:"origin"` // "seed" or a mutant channel name

	StaticCaught bool   `json:"static_caught,omitempty"`
	Detected     bool   `json:"detected,omitempty"`
	FailToken    string `json:"fail_token,omitempty"` // replay token of the first detecting schedule

	Runs       int  `json:"runs"`       // schedules spent on this entry
	NextSched  int  `json:"next_sched"` // next schedule-index (seed derivation)
	Yield      int  `json:"yield"`      // novel keys in the entry's last active round
	LastRuns   int  `json:"last_runs"`  // schedules of the entry's last active round
	TotalYield int  `json:"total_yield"`
	Dry        int  `json:"dry"` // consecutive parked rounds
	Retired    bool `json:"retired,omitempty"`

	Splices [][]sched.ThreadID `json:"splices,omitempty"` // spliced prefixes planned for next round
}

// bugLabel names an entry's planted bug for the found-bug set.
func (e *entry) bugLabel() string {
	tag := "s"
	if e.Origin != "seed" {
		tag = "m"
	}
	return fmt.Sprintf("%s%d:%s", tag, e.gp.Seed, e.gp.Bug)
}

// job is one planned schedule of one entry.
type job struct {
	e      *entry
	sched  int
	prefix []sched.ThreadID
}

// jobResult is the raw material one run hands to the serial merge.
// Keys are derived in the merge (it owns the global set); the job only
// reports what it observed.
type jobResult struct {
	outcome    interp.Outcome
	valueKind  string // value-oracle check kind ("" unless value error)
	trace      []sched.ThreadID
	branches   []sched.Branch
	sigs       []uint64 // positional signature of each branch point
	edgeShapes []uint64 // raw HB edge signatures (empty if overflowed)
}

// Run executes the campaign and returns its report. Every corpus entry
// is built by compile, and all compilation and schedule execution fans
// out opts.Workers at a time.
func Run(opts Options, compile CompileFunc) (*Report, error) {
	opts.defaults()
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("campaign: empty seed corpus")
	}

	if opts.HaltAfterRound > 0 && opts.Checkpoint == "" {
		return nil, fmt.Errorf("campaign: HaltAfterRound requires Checkpoint")
	}

	c := &state{
		opts:    opts,
		compile: compile,
		cover:   make(map[uint64]struct{}),
		seen:    make(map[uint64]bool),
	}

	startRound := 0
	if opts.Resume != "" {
		ck, err := loadCheckpoint(opts.Resume)
		if err != nil {
			return nil, err
		}
		if err := c.restore(ck); err != nil {
			return nil, err
		}
		startRound = ck.Round
	} else {
		// Admit the initial corpus. Generation is cheap and deterministic;
		// compilation fans out opts.Workers at a time (and through the
		// root's artifact cache when wired).
		gps := make([]*mhgen.Program, len(opts.Seeds))
		comps := make([]*Compiled, len(opts.Seeds))
		errs := make([]error, len(opts.Seeds))
		for i, s := range opts.Seeds {
			gps[i] = mhgen.FromSeed(s)
		}
		pipeline.Map(opts.Workers, len(gps), func(i int) {
			comps[i], errs[i] = compile(gps[i])
		})
		for i, gp := range gps {
			if errs[i] != nil {
				return nil, fmt.Errorf("campaign: seed %d: %w", opts.Seeds[i], errs[i])
			}
			cfg := mhgen.Config{Seed: gp.Seed, Bug: gp.Bug, Size: gp.Size}
			c.admit(gp, cfg, "seed", comps[i])
		}
	}

	for round := startRound; c.Runs < opts.Budget; round++ {
		if ctxErr(opts.Ctx) != nil {
			c.canceled = true
			break
		}
		jobs := c.plan(round)
		if len(jobs) == 0 {
			break
		}
		results := make([]jobResult, len(jobs))
		pipeline.MapCtx(opts.Ctx, opts.Workers, len(jobs), func(i int) {
			results[i] = c.execute(jobs[i])
		})
		if ctxErr(opts.Ctx) != nil {
			// Drop the interrupted round: skipped jobs left holes in
			// results and aborted runs carry no verdicts, so merging it
			// would make the partial report depend on worker timing. The
			// report reduces complete rounds only.
			c.canceled = true
			break
		}
		c.merge(round, jobs, results)
		completed := round + 1
		if opts.Checkpoint != "" &&
			(completed%opts.CheckpointEvery == 0 || completed == opts.HaltAfterRound) {
			if err := c.writeCheckpoint(completed); err != nil {
				return nil, err
			}
		}
		if opts.HaltAfterRound > 0 && completed >= opts.HaltAfterRound {
			break
		}
	}

	return c.report(), nil
}

// state is the campaign's mutable world. Everything in it is touched
// only from the serial phases (planning, merge, reporting); the
// parallel phase reads entries' immutable fields and runs sessions.
type state struct {
	opts    Options
	compile CompileFunc
	entries []*entry
	cover   map[uint64]struct{}
	seen    map[uint64]bool // source hashes of admitted programs (dedup)

	tally
	canceled bool
}

// tally is the campaign's running totals, which a checkpoint persists
// as they are.
type tally struct {
	Runs        int     `json:"runs"`
	SigKeys     int     `json:"sig_keys"`
	VerdictKeys int     `json:"verdict_keys"`
	EdgeKeys    int     `json:"edge_keys"`
	StaticKeys  int     `json:"static_keys"`
	Mutants     int     `json:"mutants"`
	Quarantined int     `json:"quarantined,omitempty"`
	Trajectory  []Point `json:"trajectory"`
}

// tryAdd inserts k into the coverage set and reports whether it was
// new.
func (c *state) tryAdd(k uint64) bool {
	if _, ok := c.cover[k]; ok {
		return false
	}
	c.cover[k] = struct{}{}
	return true
}

// admit appends a program to the corpus and credits its static
// coverage (compile-time warning kinds cost no schedule budget).
func (c *state) admit(gp *mhgen.Program, cfg mhgen.Config, origin string, comp *Compiled) *entry {
	e := &entry{
		id:         len(c.entries),
		gp:         gp,
		hash:       fnvString(gp.Source),
		comp:       comp,
		entryState: entryState{Config: cfg, Origin: origin},
	}
	c.seen[e.hash] = true
	for _, k := range comp.StaticKinds {
		if c.tryAdd(key(classStatic, e.hash, fnvString(k))) {
			c.StaticKeys++
		}
	}
	if len(comp.StaticKinds) > 0 && gp.Bug.String() != "none" {
		e.StaticCaught = true
	}
	c.entries = append(c.entries, e)
	return e
}

// rateScale is the fixed-point scale of the novel-keys-per-schedule
// rate (integer arithmetic keeps allocation trivially deterministic).
const rateScale = 1024

// reallocate scores the frontier for a round: each entry's allocation
// is proportional to its last active round's rate of novel coverage
// keys per schedule, relative to the round's best entry — the budget
// concentrates where coverage still grows fastest instead of being
// spread evenly. Entries whose relative rate rounds to zero are parked
// for the round (no schedules; a later drop in the leaders' rate can
// revive them), and after dryRounds consecutive parked rounds they
// retire for good. Entries admitted last round probe with initialAlloc.
// The uniform baseline gives every entry one schedule per round.
func (c *state) reallocate(round int) {
	if c.opts.Uniform {
		for _, e := range c.entries {
			e.alloc = 1
		}
		return
	}
	if round == 0 {
		for _, e := range c.entries {
			e.alloc = initialAlloc
		}
		return
	}
	rateMax := 0
	for _, e := range c.entries {
		if e.Retired || e.LastRuns == 0 {
			continue
		}
		if r := e.Yield * rateScale / e.LastRuns; r > rateMax {
			rateMax = r
		}
	}
	for _, e := range c.entries {
		switch {
		case e.Retired:
			e.alloc = 0
		case e.LastRuns == 0: // admitted last round, not yet probed
			e.alloc = initialAlloc
		default:
			alloc := 0
			if rateMax > 0 {
				alloc = e.Yield * rateScale / e.LastRuns * maxPerRound / rateMax
			}
			if alloc == 0 {
				e.Dry++
				if e.Dry >= dryRounds {
					e.Retired = true
				}
				e.Splices = nil // parked: schedule follow-ups lapse too
			} else {
				e.Dry = 0
			}
			e.alloc = alloc
		}
	}
	c.trickle()
}

// trickle spends a side budget on entries the frontier left behind
// (parked or retired): coverage rates are estimated from tiny samples,
// and dynamic-only bugs (races the planted checks only catch on the
// right schedule) hide in the schedule tail — without revisits a
// one-bad-probe entry is starved forever and the campaign loses
// detections the linear sweep finds. The trickle only opens in the
// back half of the budget, after the concentration phase has done its
// work: the front half is spent purely where coverage grows fastest,
// the back half splits evenly between the frontier and a
// fewest-probed-first floor over everyone else.
func (c *state) trickle() {
	if c.Runs*2 < c.opts.Budget {
		return
	}
	frontier := 0
	var idle []*entry
	for _, e := range c.entries {
		frontier += e.alloc
		if e.alloc == 0 && e.LastRuns > 0 {
			idle = append(idle, e)
		}
	}
	if frontier == 0 || len(idle) == 0 {
		return
	}
	sort.SliceStable(idle, func(i, j int) bool { return idle[i].Runs < idle[j].Runs })
	for i := 0; i < frontier && i < len(idle); i++ {
		idle[i].alloc = 1
	}
}

// plan builds the round's job list in corpus order: each live entry's
// pending spliced prefixes first, then its adaptive allocation,
// truncated at the remaining budget.
func (c *state) plan(round int) []job {
	c.reallocate(round)
	remaining := c.opts.Budget - c.Runs
	var jobs []job
	for _, e := range c.entries {
		for _, p := range e.Splices {
			if len(jobs) >= remaining {
				break
			}
			jobs = append(jobs, job{e: e, sched: e.NextSched, prefix: p})
			e.NextSched++
		}
		e.Splices = nil
		for k := 0; k < e.alloc && len(jobs) < remaining; k++ {
			jobs = append(jobs, job{e: e, sched: e.NextSched})
			e.NextSched++
		}
	}
	return jobs
}

// schedSeed derives the PRNG seed of one (entry, schedule index) pair
// from the campaign master seed.
func (c *state) schedSeed(e *entry, idx int) int64 {
	return int64(mix(mix(c.opts.Seed, uint64(e.id)), uint64(idx)) >> 1)
}

// execute runs one job. It mutates nothing outside its own result —
// the determinism contract of the parallel phase. It is also a
// quarantine boundary: a panicking run classifies as
// OutcomeInternalError (its runState is abandoned, never recycled) and
// the campaign continues; the entry is retired in the merge.
func (c *state) execute(j job) (jr jobResult) {
	st := tracerPool.Get().(*runState)
	defer func() {
		if r := recover(); r != nil {
			jr = jobResult{outcome: interp.OutcomeInternalError}
			return
		}
		tracerPool.Put(st)
	}()
	chaos.Here("campaign.execute")
	st.tr.reset(j.prefix, c.schedSeed(j.e, j.sched))

	res := j.e.comp.Session.RunCtx(c.opts.Ctx, st.tr)
	jr = jobResult{
		outcome: res.Outcome(),
		trace:   st.tr.Trace(),
		sigs:    append([]uint64(nil), st.tr.sigs...),
	}
	if jr.outcome == interp.OutcomeValueError {
		jr.valueKind = valueKindOf(res.Err)
	}
	jr.branches = append([]sched.Branch(nil), st.tr.Branches...)
	for i := range jr.branches {
		jr.branches[i].Enabled = append([]sched.ThreadID(nil), jr.branches[i].Enabled...)
	}
	if !st.tr.Events.Overflowed() {
		st.an.Analyze(st.tr.Events)
		st.an.EdgeSignatures(st.tr.Events, func(sig uint64) {
			jr.edgeShapes = append(jr.edgeShapes, sig)
		})
	}
	return jr
}

// merge folds the round's results into the global coverage set, in job
// order — the only place the set, the frontier scores and the corpus
// change.
func (c *state) merge(round int, jobs []job, results []jobResult) {
	for i := range results {
		e, jr := jobs[i].e, &results[i]
		e.Runs++
		c.Runs++

		if jr.outcome == interp.OutcomeInternalError {
			// Quarantined panic: a validator bug, not program coverage.
			// Count it, retire the entry (rerunning a crashing entry
			// would burn the budget on the same panic), keep going.
			c.Quarantined++
			e.Retired = true
			continue
		}
		novel := 0

		if c.tryAdd(key(classVerdict, e.hash, fnvString(jr.outcome.String()+"/"+jr.valueKind))) {
			c.VerdictKeys++
			novel++
		}
		deepest := -1
		for bi, sig := range jr.sigs {
			if sig == 0 {
				continue
			}
			if c.tryAdd(key(classSig, e.hash, mix(sig, uint64(jr.branches[bi].Chosen)))) {
				c.SigKeys++
				novel++
				deepest = bi
			}
		}
		for _, sig := range jr.edgeShapes {
			if c.tryAdd(key(classEdge, e.hash, sig)) {
				c.EdgeKeys++
				novel++
			}
		}

		if (jr.outcome == interp.OutcomeCheckAbort || jr.outcome == interp.OutcomeValueError) && !e.Detected {
			e.Detected = true
			e.FailToken = sched.FormatTrace(jr.trace)
		}

		e.roundYield += novel
		e.TotalYield += novel

		// Splice: expand the deepest branch that produced a novel
		// positional signature — the same child expansion DFS performs,
		// but rooted only where this run proved the state space is still
		// growing.
		if novel > 0 && deepest >= 0 && !c.opts.Uniform && len(e.Splices) < spliceCap {
			b := &jr.branches[deepest]
			for _, alt := range b.Enabled {
				if alt == b.Chosen || len(e.Splices) >= spliceCap {
					continue
				}
				child := make([]sched.ThreadID, deepest+1)
				copy(child, jr.trace[:deepest])
				child[deepest] = alt
				e.Splices = append(e.Splices, child)
			}
		}
	}

	// Close the round: frontier scores and mutation (parking and
	// retirement happen in reallocate, where relative rates are known).
	ran := make(map[*entry]int, len(jobs))
	for i := range jobs {
		ran[jobs[i].e]++
	}
	for _, e := range c.entries {
		n := ran[e]
		if n == 0 {
			continue
		}
		e.Yield = e.roundYield
		e.LastRuns = n
		if e.roundYield > 0 {
			c.mutate(e)
		}
		e.roundYield = 0
	}

	c.Trajectory = append(c.Trajectory, Point{
		Round:    round,
		Runs:     c.Runs,
		Coverage: len(c.cover),
		Bugs:     c.bugCount(),
	})
}

// bugCount counts entries whose planted bug has been caught (static or
// dynamic).
func (c *state) bugCount() int {
	n := 0
	for _, e := range c.entries {
		if e.gp.Bug.String() != "none" && (e.StaticCaught || e.Detected) {
			n++
		}
	}
	return n
}
