// Happens-before layer for dynamic partial-order reduction.
//
// Under a scheduling controller (internal/sched) a run is a sequence of
// *events*: the interval between two consecutive scheduling decisions,
// executed entirely by the one thread the scheduler chose. The
// interpreter tags each event with the shared objects it touches — cell
// reads/writes, MPI call slots, election and lock-queue slots — and this
// file turns the tagged trace into the two relations DPOR needs:
//
//   - happens-before: the transitive closure of per-thread program order,
//     conflicting-access order (Mazurkiewicz dependence) and explicit
//     release/acquire synchronization edges, computed with one vector
//     clock per thread;
//   - race pairs: conflicting accesses by different threads that are NOT
//     ordered by everything else — exactly the adjacent event pairs whose
//     reversal can reach a different program state, i.e. the only
//     decision reversals the exploration engine has to schedule.
//
// Two adjacent events commute iff no object conflicts, so a trace with
// no race pairs proves the whole interleaving class has been covered by
// this single run.
//
// The monitor owns this layer (rather than sched) because object
// identity is a runtime notion: the runtimes and the interpreter know
// what a step touched, the scheduler only knows who ran. Everything here
// is plain data — no locks: the controller appends on the running
// thread or its driver, one at a time, and analysis runs after the run
// completes.

package monitor

import "encoding/binary"

// Obj identifies one shared object within a single run. Interpreters
// derive ids from addresses and composite keys via Mix/ObjID; a
// collision merely merges two objects into one conflict class, which
// over-approximates the dependence relation and is therefore always
// sound (it can add explored schedules, never hide one).
type Obj uint64

// AccessKind classifies how an event touched an object.
type AccessKind uint8

// Access kinds. Read/Write participate in conflict (race) detection;
// Acquire/Release only contribute happens-before edges — they model
// blocking synchronization whose order is enforced by enabledness (a
// barrier resume cannot be scheduled before the arrivals that released
// it), so reversing them is not a reachable schedule and they must not
// spawn backtrack points.
const (
	// AccRead is a conflict-visible read.
	AccRead AccessKind = iota
	// AccWrite is a conflict-visible write: it conflicts with reads and
	// writes of the same object by other threads.
	AccWrite
	// AccRelease publishes the current thread's history on the object.
	AccRelease
	// AccAcquire joins the last Release of the object into the current
	// thread's clock.
	AccAcquire
)

// Access is one tagged object access.
type Access struct {
	Obj  Obj
	Kind AccessKind
}

// Mix spreads a raw identity (typically an address) over the full Obj
// space with a splitmix64 round.
func Mix(z uint64) Obj {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return Obj(z ^ z>>31)
}

// ObjID builds a composite object id from a kind tag and two key parts.
func ObjID(kind, a, b uint64) Obj {
	return Mix(uint64(Mix(uint64(Mix(kind))+a)) + b)
}

// Event is one scheduled step: everything thread Thread executed between
// being granted the run token and the next scheduling decision.
type Event struct {
	// Thread is the sched.ThreadID that ran.
	Thread int32
	// Branch is the index of the decision that started this event in the
	// run's branch-point sequence (sched.Recorder.Branches), or -1 when
	// the decision was forced (a single enabled thread): a forced
	// decision has no alternative, so it can never host a backtrack.
	Branch int32
	lo, hi int32
}

// DefaultTraceLimit bounds recorded events per run. Runs that overrun it
// (step-budget-bound spins) keep their prefix and set Overflowed; the
// exploration engine expands every untaken alternative of such runs,
// which is sound.
const DefaultTraceLimit = 1 << 17

// EventTrace accumulates one run's tagged events. The scheduling
// controller appends under its own lock; analysis happens after the run.
type EventTrace struct {
	events   []Event
	acc      []Access
	limit    int
	overflow bool
}

// Reset clears the trace for a new run, keeping capacity.
func (t *EventTrace) Reset() {
	t.events = t.events[:0]
	t.acc = t.acc[:0]
	t.overflow = false
	if t.limit == 0 {
		t.limit = DefaultTraceLimit
	}
}

// SetLimit overrides the recorded-event bound (0 restores the default).
func (t *EventTrace) SetLimit(n int) {
	if n <= 0 {
		n = DefaultTraceLimit
	}
	t.limit = n
}

// Open starts a new event for thread; branch is the branch-point index
// of the decision that granted it (-1 for forced decisions).
func (t *EventTrace) Open(thread, branch int) {
	if t.limit == 0 {
		t.limit = DefaultTraceLimit
	}
	if len(t.events) >= t.limit {
		t.overflow = true
		return
	}
	n := int32(len(t.acc))
	t.events = append(t.events, Event{Thread: int32(thread), Branch: int32(branch), lo: n, hi: n})
}

// Append adds accesses to the currently open (most recent) event.
func (t *EventTrace) Append(accs []Access) {
	if len(accs) == 0 || len(t.events) == 0 || t.overflow {
		return
	}
	t.acc = append(t.acc, accs...)
	t.events[len(t.events)-1].hi = int32(len(t.acc))
}

// Len returns the number of recorded events.
func (t *EventTrace) Len() int { return len(t.events) }

// At returns the i-th event's thread and branch index.
func (t *EventTrace) At(i int) (thread, branch int) {
	e := &t.events[i]
	return int(e.Thread), int(e.Branch)
}

// Accesses returns the i-th event's access list (valid until Reset).
func (t *EventTrace) Accesses(i int) []Access {
	e := &t.events[i]
	return t.acc[e.lo:e.hi]
}

// Overflowed reports whether events were dropped at the trace limit.
func (t *EventTrace) Overflowed() bool { return t.overflow }

// Race is one pair of conflicting, happens-before-unordered events
// (A < B in trace order, different threads). Reversing B's thread to run
// at A's decision point is exactly the schedule perturbation DPOR must
// explore; everything else commutes.
type Race struct {
	A, B int
}

// objState tracks the last conflict-visible accesses of one object.
type objState struct {
	lastW   int32
	lastRel int32
	// readers holds, per reading thread since the last write, that
	// thread's latest read event (threads are few; linear scan wins).
	readers []int32
}

// Analysis holds the vector clocks, race pairs and per-thread event
// index of one analyzed trace. Reused across runs via Analyze.
type Analysis struct {
	threads int
	stride  int
	clocks  []uint32 // event i's clock at clocks[i*stride : (i+1)*stride]
	cur     []uint32 // scratch: per-thread current clock
	races   []Race
	// byThread lists event indices per thread, in trace order (sorted).
	byThread [][]int32
	objs     map[Obj]*objState
	freeObj  []*objState
}

func (a *Analysis) clockOf(ev int) []uint32 { return a.clocks[ev*a.stride : (ev+1)*a.stride] }

func joinClock(dst, src []uint32) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func (a *Analysis) getObj(o Obj) *objState {
	st := a.objs[o]
	if st == nil {
		if n := len(a.freeObj); n > 0 {
			st = a.freeObj[n-1]
			a.freeObj = a.freeObj[:n-1]
			st.lastW, st.lastRel = -1, -1
			st.readers = st.readers[:0]
		} else {
			st = &objState{lastW: -1, lastRel: -1}
		}
		a.objs[o] = st
	}
	return st
}

func (a *Analysis) addRace(x, y int) {
	if n := len(a.races); n > 0 && a.races[n-1] == (Race{x, y}) {
		return // same pair re-detected through a second access of y
	}
	a.races = append(a.races, Race{x, y})
}

// Analyze computes vector clocks and race pairs for t, reusing a's
// buffers. Happens-before is the transitive closure of program order,
// conflicting-access order and release/acquire edges; a race is reported
// for each pair of conflicting accesses by different threads that no
// *other* edge already orders (the classic FastTrack check: the prior
// access's own clock component exceeds the current thread's view of it).
func (a *Analysis) Analyze(t *EventTrace) {
	n := t.Len()
	threads := 0
	for i := 0; i < n; i++ {
		th, _ := t.At(i)
		if th+1 > threads {
			threads = th + 1
		}
	}
	a.threads = threads
	a.stride = threads
	a.races = a.races[:0]
	if cap(a.byThread) < threads {
		a.byThread = make([][]int32, threads)
	}
	a.byThread = a.byThread[:threads]
	for i := range a.byThread {
		a.byThread[i] = a.byThread[i][:0]
	}
	if a.objs == nil {
		a.objs = make(map[Obj]*objState)
	} else {
		for o, st := range a.objs {
			a.freeObj = append(a.freeObj, st)
			delete(a.objs, o)
		}
	}
	need := n * a.stride
	if cap(a.clocks) < need {
		a.clocks = make([]uint32, need)
	}
	a.clocks = a.clocks[:need]
	curNeed := threads * a.stride
	if cap(a.cur) < curNeed {
		a.cur = make([]uint32, curNeed)
	}
	a.cur = a.cur[:curNeed]
	for i := range a.cur {
		a.cur[i] = 0
	}

	// Within the loop, clockOf(j) may only be consulted for j < i: event
	// i's own row is not written until the end of its iteration, and on a
	// reused Analysis it still holds the previous trace's clocks. A prior
	// access index equal to i arises when one event touches the same
	// object twice (a read-modify-write between two scheduling decisions)
	// — same thread, so there is nothing to order or report anyway.
	for i := 0; i < n; i++ {
		tid, _ := t.At(i)
		cur := a.cur[tid*a.stride : (tid+1)*a.stride]
		cur[tid]++ // this event is one step of tid
		for _, acc := range t.Accesses(i) {
			st := a.getObj(acc.Obj)
			switch acc.Kind {
			case AccRelease:
				st.lastRel = int32(i)
			case AccAcquire:
				if st.lastRel >= 0 && int(st.lastRel) != i {
					joinClock(cur, a.clockOf(int(st.lastRel)))
				}
			case AccRead:
				if w := st.lastW; w >= 0 && int(w) != i {
					wt, _ := t.At(int(w))
					if wt != tid && a.clockOf(int(w))[wt] > cur[wt] {
						a.addRace(int(w), i)
					}
					joinClock(cur, a.clockOf(int(w)))
				}
				// Record (or refresh) this thread's read.
				found := false
				for ri, r := range st.readers {
					rt, _ := t.At(int(r))
					if rt == tid {
						st.readers[ri] = int32(i)
						found = true
						break
					}
				}
				if !found {
					st.readers = append(st.readers, int32(i))
				}
			case AccWrite:
				if w := st.lastW; w >= 0 && int(w) != i {
					wt, _ := t.At(int(w))
					if wt != tid && a.clockOf(int(w))[wt] > cur[wt] {
						a.addRace(int(w), i)
					}
					joinClock(cur, a.clockOf(int(w)))
				}
				for _, r := range st.readers {
					if int(r) == i {
						continue
					}
					rt, _ := t.At(int(r))
					if rt != tid && a.clockOf(int(r))[rt] > cur[rt] {
						a.addRace(int(r), i)
					}
					joinClock(cur, a.clockOf(int(r)))
				}
				st.readers = st.readers[:0]
				st.lastW = int32(i)
			}
		}
		copy(a.clockOf(i), cur)
		a.byThread[tid] = append(a.byThread[tid], int32(i))
	}
}

// Races returns the race pairs in trace order of their second event
// (valid until the next Analyze).
func (a *Analysis) Races() []Race { return a.races }

// Threads returns the number of threads the analyzed trace used.
func (a *Analysis) Threads() int { return a.threads }

// HappensBefore reports whether event i happens-before event j (true
// for i == j). Both must be valid indices of the analyzed trace.
func (a *Analysis) HappensBefore(i, j int, t *EventTrace) bool {
	ti, _ := t.At(i)
	return a.clockOf(i)[ti] <= a.clockOf(j)[ti]
}

// threadOrdinal returns the 0-based position of event ev within its own
// thread's event sequence. ev must be an event of the analyzed trace.
func (a *Analysis) threadOrdinal(thread, ev int) int {
	evs := a.byThread[thread]
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(evs[mid]) < ev {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EdgeSignature folds one race pair into a dependence-edge shape key: a
// hash over (thread of A, A's ordinal within that thread, thread of B,
// B's ordinal within that thread). The shape abstracts away absolute
// trace positions — two runs whose threads interleave the same
// conflicting steps in the same per-thread order produce the same
// signature — while a reversed pair (the same conflict observed in the
// opposite order) hashes the roles swapped and therefore yields a
// distinct key. This is the monitor-level component of the campaign
// engine's coverage signal (internal/campaign): a new edge shape means
// the schedule reached a dependence the corpus had not yet witnessed.
func (a *Analysis) EdgeSignature(rc Race, t *EventTrace) uint64 {
	ta, _ := t.At(rc.A)
	tb, _ := t.At(rc.B)
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(ta))
	binary.LittleEndian.PutUint64(buf[8:], uint64(a.threadOrdinal(ta, rc.A)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(tb))
	binary.LittleEndian.PutUint64(buf[24:], uint64(a.threadOrdinal(tb, rc.B)))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// EdgeSignatures emits the edge signature of every race pair of the
// analyzed trace, in trace order. Identical traces emit identical
// sequences; the emit function typically feeds a coverage set.
func (a *Analysis) EdgeSignatures(t *EventTrace, emit func(uint64)) {
	for _, rc := range a.races {
		emit(a.EdgeSignature(rc, t))
	}
}

// NextEventOf returns the first event of thread strictly after trace
// index after, or -1. This is the per-thread "next access summary" at a
// decision point: the step thread would take if scheduled there.
func (a *Analysis) NextEventOf(thread, after int) int {
	if thread < 0 || thread >= len(a.byThread) {
		return -1
	}
	evs := a.byThread[thread]
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(evs[mid]) <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(evs) {
		return -1
	}
	return int(evs[lo])
}
