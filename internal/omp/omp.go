// Package omp simulates the explicit fork/join threading model the paper
// assumes ("perfectly nested regions"; OpenMP is the reference model): a
// per-process runtime that forks thread teams for parallel regions —
// nested regions fork nested teams — and provides team barriers, single
// and master constructs, sections, static/dynamic worksharing loops and
// named critical sections.
//
// Every team barrier and critical section waits through the MPI world's
// scheduling controller (internal/sched), the blocking kernel the whole
// run shares, so a thread stuck on a team barrier while a sibling waits
// in an MPI collective is detected as a deadlock with a full report. A
// team barrier is one sched.Round over the team's members, the
// rendezvous MPI collectives use too, and its sequence is the team's
// barrier phase: the exact "barrier phase" notion the paper's dynamic
// checks count in.
package omp

import (
	"fmt"

	"parcoach/internal/sched"
)

// Policy selects how single constructs elect their executing thread.
type Policy int

// Election policies.
const (
	// FirstArrival mimics real runtimes: the first thread to reach the
	// construct executes it. Bug manifestation is schedule-dependent.
	FirstArrival Policy = iota
	// RoundRobin deterministically rotates the winner with the encounter
	// index, making concurrency bugs reproducible in tests.
	RoundRobin
)

func (p Policy) String() string {
	if p == RoundRobin {
		return "round-robin"
	}
	return "first-arrival"
}

// ParsePolicy maps a CLI name ("first-arrival", "round-robin") to its
// policy.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{FirstArrival, RoundRobin} {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want first-arrival|round-robin)", name)
}

// Runtime is the threading runtime of one process. Its threads run one
// at a time under the run's scheduling controller, so only the running
// thread touches the runtime and it needs no lock of its own.
type Runtime struct {
	ctl            *sched.Controller
	defaultThreads int
	policy         Policy

	nextThreadID int64
	nextTeamID   int64

	// crit maps critical-section names to process-wide locks.
	crit map[string]*critLock

	// Teams and threads are handed out per parallel region and go back
	// to the free lists when the team's last member returns, so a run
	// holds the teams of its live threads only, and a schedule
	// exploration re-runs region-heavy programs without reallocating a
	// single team or thread after warm-up. The initial team goes back at
	// Reset.
	initial     *Team
	freeTeams   []*Team
	freeThreads []*Thread
}

// New creates a runtime whose threads run under ctl and whose parallel
// regions default to defaultThreads threads (minimum 1).
func New(ctl *sched.Controller, defaultThreads int, policy Policy) *Runtime {
	if defaultThreads < 1 {
		defaultThreads = 1
	}
	return &Runtime{
		ctl:            ctl,
		defaultThreads: defaultThreads,
		policy:         policy,
		crit:           make(map[string]*critLock),
	}
}

// Reset clears the runtime for a fresh run: its counters and
// critical-section table, and the previous run's initial team, which
// goes back to the free lists. Its controller, default team size and
// policy stay for the runtime's life, so a session's run environment
// keeps one runtime per rank across thousands of runs. Only safe once
// the previous run has ended (its World.Run returned).
func (rt *Runtime) Reset() {
	rt.nextThreadID = 0
	rt.nextTeamID = 0
	clear(rt.crit)
	if rt.initial != nil {
		rt.release(rt.initial)
		rt.initial = nil
	}
}

// DefaultThreads returns the default team size.
func (rt *Runtime) DefaultThreads() int { return rt.defaultThreads }

// Team is one thread team.
type Team struct {
	rt    *Runtime
	id    int64
	size  int
	level int

	// barrier is the team barrier, a round over the members by tid.
	barrier *sched.Round

	// claimed tracks single elections under FirstArrival (lazily
	// allocated on first use).
	claimed map[encKey]bool
	// dyn holds the shared iteration counters of dynamic worksharing
	// loops (lazily allocated).
	dyn map[encKey]*int64

	// members are the team's threads; running counts those whose
	// region body has not returned.
	members []*Thread
	running int
}

// ID returns a runtime-unique team id.
func (t *Team) ID() int64 { return t.id }

// Size returns the team size.
func (t *Team) Size() int { return t.size }

// Level returns the nesting depth (0 for the initial implicit team).
func (t *Team) Level() int { return t.level }

// Phase returns the team's barrier phase: the number of completed team
// barriers (implicit or explicit). The verifier counts collective
// executions per phase.
func (t *Team) Phase() int { return t.barrier.Seq() }

// encKey identifies the k-th encounter of a threading construct by a team.
type encKey struct {
	region    int
	encounter int
}

// Thread is one thread of a team.
type Thread struct {
	team *Team
	tid  int
	id   int64
	// encounters counts how many times this thread has reached each
	// construct, aligning construct instances across the team. Region
	// ids are dense ([0, Program.Regions)), so a slice grown on demand
	// replaces the per-thread map.
	encounters []int
}

// Team returns the innermost team.
func (th *Thread) Team() *Team { return th.team }

// TID returns the thread number within its team (0 = master).
func (th *Thread) TID() int { return th.tid }

// ID returns the process-wide unique thread id.
func (th *Thread) ID() int64 { return th.id }

// String renders "team#T.thread#N".
func (th *Thread) String() string {
	return fmt.Sprintf("team%d.t%d", th.team.id, th.tid)
}

func (rt *Runtime) newTeam(size, level int) *Team {
	var t *Team
	if n := len(rt.freeTeams); n > 0 {
		t = rt.freeTeams[n-1]
		rt.freeTeams = rt.freeTeams[:n-1]
	} else {
		t = &Team{}
		t.barrier = sched.NewRound(rt.ctl, 0, "team barrier", func(tid int) string {
			return fmt.Sprintf("team%d.t%d waiting at barrier (phase %d, %d/%d arrived)",
				t.id, tid, t.barrier.Seq(), t.barrier.Count(), t.size)
		})
	}
	rt.nextTeamID++
	t.rt = rt
	t.id = rt.nextTeamID
	t.size = size
	t.level = level
	t.barrier.Reset(size)
	if t.claimed != nil {
		clear(t.claimed)
	}
	if t.dyn != nil {
		clear(t.dyn)
	}
	t.members = t.members[:0]
	t.running = 0
	return t
}

// release returns a team whose members have all returned, and its
// threads, to the free lists.
func (rt *Runtime) release(t *Team) {
	for i, th := range t.members {
		th.team = nil
		rt.freeThreads = append(rt.freeThreads, th)
		t.members[i] = nil
	}
	t.members = t.members[:0]
	rt.freeTeams = append(rt.freeTeams, t)
}

func (rt *Runtime) newThread(team *Team, tid int, reuseID int64) *Thread {
	id := reuseID
	if id == 0 {
		rt.nextThreadID++
		id = rt.nextThreadID
	}
	var th *Thread
	if n := len(rt.freeThreads); n > 0 {
		th = rt.freeThreads[n-1]
		rt.freeThreads = rt.freeThreads[:n-1]
	} else {
		th = &Thread{}
	}
	team.members = append(team.members, th)
	th.team = team
	th.tid = tid
	th.id = id
	for i := range th.encounters {
		th.encounters[i] = 0
	}
	return th
}

// InitialThread returns the process's implicit initial team of size 1 and
// its single thread (the thread that calls MPI_Init).
func (rt *Runtime) InitialThread() *Thread {
	team := rt.newTeam(1, 0)
	rt.initial = team
	return rt.newThread(team, 0, 0)
}

// Parallel forks a team of n threads (rt default if n <= 0) that each run
// body, then joins them with the implicit end-of-region barrier. The
// encountering thread becomes thread 0 of the new team, keeping its
// process-wide id (so MPI_THREAD_FUNNELED still recognizes the main
// thread inside a region). The first body error aborts the whole run.
func (rt *Runtime) Parallel(cur *Thread, n int, body func(*Thread) error) error {
	if n <= 0 {
		n = rt.defaultThreads
	}
	team := rt.newTeam(n, cur.team.level+1)
	team.running = n
	master := rt.newThread(team, 0, cur.id)

	// Workers take the next thread ids in member order.
	for i := 1; i < n; i++ {
		worker := rt.newThread(team, i, 0)
		rt.ctl.Go(func() { rt.runMember(worker, body) })
	}
	rt.runMember(master, body)
	return rt.ctl.Err()
}

// runMember executes body then the join barrier. The team's last
// member to return releases the team.
func (rt *Runtime) runMember(th *Thread, body func(*Thread) error) {
	if err := body(th); err != nil {
		rt.ctl.Abort(err)
	}
	// Implicit join barrier; returns immediately (with the abort error)
	// when the run has failed, so no thread hangs on a dead team.
	_ = th.Barrier()
	t := th.team
	t.running--
	if t.running == 0 {
		rt.release(t)
	}
}

// Barrier blocks until all team threads arrive, then advances the team's
// barrier phase. Returns the abort error if the run failed.
func (th *Thread) Barrier() error {
	t := th.team
	if err := t.rt.ctl.Err(); err != nil {
		return err
	}
	last, err := t.barrier.Join(th.tid)
	if last {
		t.barrier.Release()
	}
	return err
}

// encounter advances this thread's per-construct encounter counter and
// returns the instance index.
func (th *Thread) encounter(regionID int) int {
	for len(th.encounters) <= regionID {
		th.encounters = append(th.encounters, 0)
	}
	k := th.encounters[regionID]
	th.encounters[regionID] = k + 1
	return k
}

// Single reports whether this thread executes the single construct
// instance. The caller runs the body if true, then calls Barrier unless
// the construct is nowait.
func (th *Thread) Single(regionID int) bool {
	idx := th.encounter(regionID)
	t := th.team
	if t.size == 1 {
		return true
	}
	if t.rt.policy == RoundRobin {
		// Rotate with both the region and the encounter so two different
		// single constructs in the same phase get different winners —
		// the schedule that makes concurrent-single bugs manifest.
		return th.tid == (regionID+idx)%t.size
	}
	if t.claimed == nil {
		t.claimed = make(map[encKey]bool)
	}
	key := encKey{region: regionID, encounter: idx}
	if t.claimed[key] {
		return false
	}
	t.claimed[key] = true
	return true
}

// Master reports whether this thread is the team master.
func (th *Thread) Master() bool { return th.tid == 0 }

// Sections returns the index of the first section body this thread
// executes and the stride to its next one: the bodies are dealt
// round-robin, so thread tid runs bodies tid, tid+size, tid+2·size, …
// The caller runs them in order, then calls Barrier unless nowait.
func (th *Thread) Sections(regionID int) (first, stride int) {
	th.encounter(regionID)
	return th.tid, th.team.size
}

// ForLoop describes this thread's share of a worksharing loop.
type ForLoop struct {
	th       *Thread
	from, to int64
	static   bool
	next     int64 // static: next index for this thread
	counter  *int64
}

// StaticFor returns a round-robin (cyclic) static schedule over [from,to).
func (th *Thread) StaticFor(regionID int, from, to int64) *ForLoop {
	th.encounter(regionID)
	return &ForLoop{th: th, from: from, to: to, static: true, next: from + int64(th.tid)}
}

// DynamicFor returns a dynamic schedule with chunk size 1 over [from,to):
// threads race on a shared counter, so iteration ownership is
// schedule-dependent (as in real OpenMP).
func (th *Thread) DynamicFor(regionID int, from, to int64) *ForLoop {
	idx := th.encounter(regionID)
	t := th.team
	if t.dyn == nil {
		t.dyn = make(map[encKey]*int64)
	}
	key := encKey{region: regionID, encounter: idx}
	c, ok := t.dyn[key]
	if !ok {
		v := from
		c = &v
		t.dyn[key] = c
	}
	return &ForLoop{th: th, from: from, to: to, counter: c}
}

// Next returns the next iteration index owned by this thread, or false
// when its share is exhausted.
func (l *ForLoop) Next() (int64, bool) {
	if l.static {
		i := l.next
		if i >= l.to {
			return 0, false
		}
		l.next += int64(l.th.team.size)
		return i, true
	}
	i := *l.counter
	*l.counter++
	if i >= l.to {
		return 0, false
	}
	return i, true
}

//
// Critical sections
//

// critLock is one named critical lock; queue holds the gates of the
// threads waiting for it, in arrival order.
type critLock struct {
	held  bool
	queue []*sched.Gate
}

// CriticalEnter acquires the process-wide named critical lock ("" is the
// anonymous one), waiting through the controller so a stuck holder is
// visible in deadlock reports.
func (rt *Runtime) CriticalEnter(th *Thread, name string) error {
	ctl := rt.ctl
	if err := ctl.Err(); err != nil {
		return err
	}
	l := rt.crit[name]
	if l == nil {
		l = &critLock{}
		rt.crit[name] = l
	}
	if !l.held {
		l.held = true
		return nil
	}
	l.queue = append(l.queue, ctl.Running())
	return ctl.Wait("critical section", func() string {
		return fmt.Sprintf("%s waiting for critical(%s)", th, critName(name))
	})
}

// CriticalExit releases the lock, handing it to the first queued waiter.
func (rt *Runtime) CriticalExit(th *Thread, name string) {
	l := rt.crit[name]
	if l == nil {
		return
	}
	if len(l.queue) > 0 {
		g := l.queue[0]
		l.queue = l.queue[1:]
		// Ownership transfers directly to the woken waiter.
		rt.ctl.Wake(g)
		return
	}
	l.held = false
}

func critName(name string) string {
	if name == "" {
		return "<anonymous>"
	}
	return name
}
