package interp

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"parcoach/internal/monitor"
	"parcoach/internal/parser"
	"parcoach/internal/sched"
)

// TestResolvedScopes pins how names bind: lexical shadowing within and
// across blocks, a fresh binding per loop iteration and per call,
// variables declared outside a parallel region shared by its team and
// those declared inside private to each member, and arrays passed by
// reference. Each program runs on parser output, so sem's rejections
// (a redeclaration, a duplicate parameter) do not hide the binding the
// interpreter itself chooses.
func TestResolvedScopes(t *testing.T) {
	tests := []struct {
		name  string
		opts  Options
		src   string
		exit  int64
		print string
	}{
		{"redeclare-in-block", Options{Procs: 1}, `
func main() {
	var x = 1
	var x = x + 1
	return x
}`, 2, ""},
		{"read-before-inner-redeclaration", Options{Procs: 1}, `
func main() {
	var x = 1
	var y = 0
	if x > 0 {
		y = x * 10
		var x = 5
		y = y + x
	} else {
		var x = 7
		y = x
	}
	print(x, y)
	return y * 100 + x
}`, 1501, "r0: 1 15\n"},
		{"loop-body-redeclaration", Options{Procs: 1}, `
func main() {
	var s = 0
	for i = 0 .. 3 {
		var t
		t = t + i
		var u[2]
		u[1] = u[1] + t
		s = s * 10 + t + u[1]
	}
	var w = 0
	while w < 2 {
		var v = w
		v += 1
		w = v
	}
	return s * 10 + w
}`, 242, ""},
		{"duplicate-parameters", Options{Procs: 1}, `
func f(a, a) {
	return a
}
func main() {
	return f(1, 2)
}`, 2, ""},
		{"recursion", Options{Procs: 1}, `
func down(n) {
	var k = n * 10
	if n > 0 {
		var r = down(n - 1)
		k = k + r
	}
	return k
}
func main() {
	print(down(3))
	return down(4)
}`, 100, "r0: 60\n"},
		{"region-shared-and-private", Options{Procs: 1}, `
func main() {
	var s = 0
	parallel num_threads(2) {
		var p = tid()
		parallel num_threads(2) {
			var q = tid() + 10 * p
			atomic s += q
			p = p
		}
		atomic s += 100 * (p + 1)
	}
	return s
}`, 322, ""},
		{"pfor-in-called-function", Options{Procs: 1, Threads: 2}, `
func work(n) {
	var acc = 0
	pfor i = 0 .. n {
		acc += i
	}
	return acc
}
func main() {
	var total = 0
	var parts[2]
	parallel {
		var mine = work(10)
		parts[tid()] = mine
		atomic total += mine
	}
	print(parts)
	return total
}`, 45, "r0: [20 25]\n"},
		{"arrays-by-reference", Options{Procs: 1}, `
func fill(a, v) {
	for i = 0 .. len(a) {
		a[i] = v + i
	}
	return 0
}
func outer(a) {
	fill(a, 10)
	a[0] += 100
	return 0
}
func sum(a) {
	var s = 0
	for i = 0 .. len(a) {
		s += a[i]
	}
	return s
}
func main() {
	var a[4]
	outer(a)
	print(a)
	return sum(a)
}`, 146, "r0: [110 11 12 13]\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := Run(parser.MustParse("t.mh", tt.src), tt.opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := res.ExitValues[0]; got != tt.exit {
				t.Errorf("exit value = %d, want %d", got, tt.exit)
			}
			if res.Output != tt.print {
				t.Errorf("output = %q, want %q", res.Output, tt.print)
			}
		})
	}
}

// tracedRandom is a seeded random scheduler that records the run's
// event trace.
type tracedRandom struct {
	*sched.Random
	events monitor.EventTrace
}

func (s *tracedRandom) EventTrace() *monitor.EventTrace { return &s.events }

// traceIdentitySrc declares scalars and arrays in loop bodies, parallel
// regions and callees, so the allocation ids that key cell and element
// objects in the trace come from every kind of declaration.
const traceIdentitySrc = `
func fill(a, k) {
	for i = 0 .. len(a) {
		var t = a[i] + k
		a[i] = t
	}
	return a[0]
}

func work(n) {
	var acc[2]
	var s = n
	pfor j = 0 .. 4 {
		var u = j * n
		atomic s += u
	}
	return fill(acc, s)
}

func main() {
	MPI_Init()
	var shared = rank()
	var buf[3]
	for i = 0 .. 2 {
		var local = i + shared
		buf[i] = local
		parallel num_threads(2) {
			var mine[2]
			var p = tid() + local
			mine[0] = work(p)
			critical { shared = shared + mine[0] }
			single { buf[2] = fill(buf, p) }
		}
	}
	MPI_Allreduce(shared, shared, sum)
	print(shared, buf[2])
	MPI_Finalize()
	return shared
}
`

// TestTraceIdentityPinned guards the object ids DPOR keys its conflicts
// on: the allocation order of cells and arrays, and every access the
// interpreter tags. It renders the event traces of the first eight
// seeded random schedules of a 2×2 run and compares their digest and
// event count with pinned values; a change that moves any id or access
// changes the digest.
func TestTraceIdentityPinned(t *testing.T) {
	const (
		wantDigest = uint64(0x9ff6ec1e68fb9a9a)
		wantEvents = 2334
	)
	sess := NewSession(parser.MustParse("trace.mh", traceIdentitySrc), Options{Procs: 2, Threads: 2})
	h := fnv.New64()
	events := 0
	for seed := int64(1); seed <= 8; seed++ {
		s := &tracedRandom{Random: sched.NewRandom(seed)}
		res := sess.Run(s)
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		tr := &s.events
		if tr.Overflowed() {
			t.Fatalf("seed %d: trace overflowed", seed)
		}
		var b strings.Builder
		for i := 0; i < tr.Len(); i++ {
			th, br := tr.At(i)
			fmt.Fprintf(&b, "%d %d", th, br)
			for _, a := range tr.Accesses(i) {
				fmt.Fprintf(&b, " %x/%d", uint64(a.Obj), a.Kind)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(h, "seed %d %s|%v\n%s", seed, res.Output, res.ExitValues, b.String())
		events += tr.Len()
	}
	if got := h.Sum64(); got != wantDigest || events != wantEvents {
		t.Errorf("trace digest %#x over %d events, want %#x over %d", got, events, wantDigest, wantEvents)
	}
}

// TestRunMemoryBoundedByLiveThreads: a run's memory follows its live
// threads, not the regions it has executed. Every forked worker's gate,
// team and thread goes back to the run's free lists when the team's
// last member returns, so ten times the regions must not hold more
// heap at the run's last statement.
func TestRunMemoryBoundedByLiveThreads(t *testing.T) {
	heapAtEnd := func(n int) uint64 {
		src := fmt.Sprintf(`
func main() {
	var n = 0
	for i = 0 .. %d {
		parallel num_threads(2) {
			single { n = n + 1 }
		}
	}
	print(n)
}`, n)
		last := strings.Count(src, "\n")
		var heap uint64
		defer SetTestStep(func(rank, tid, line int) {
			if line == last {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap = ms.HeapAlloc
			}
		})()
		res := Run(parser.MustParse("mem.mh", src), Options{Procs: 1, Threads: 2})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := fmt.Sprintf("r0: %d\n", n); res.Output != want {
			t.Fatalf("output = %q, want %q", res.Output, want)
		}
		return heap
	}
	small, large := heapAtEnd(2_000), heapAtEnd(20_000)
	growth := int64(large) - int64(small)
	t.Logf("heap at the last statement: %d B after 2000 regions, %d B after 20000", small, large)
	if growth > 1<<20 {
		t.Errorf("heap grew by %d B from 2000 to 20000 regions; want under 1 MiB", growth)
	}
}

// TestVerifierMemoryBoundedByLiveTeams: the verifier's run state
// follows the live teams, not the regions or barrier phases a run has
// executed. Each program runs a flagged collective under a phase count
// once per region (the loop of regions) or once per barrier phase of
// one region; ten times the iterations must not hold more heap at the
// run's last statement.
func TestVerifierMemoryBoundedByLiveTeams(t *testing.T) {
	for _, tc := range []struct {
		name, loop string
	}{
		{"regions", `
	for i = 0 .. %d {
		parallel num_threads(2) {
			if tid() == 0 { MPI_Allreduce(x, x, sum) }
		}
	}`},
		{"phases", `
	parallel num_threads(2) {
		for i = 0 .. %d {
			if tid() == 0 { MPI_Allreduce(x, x, sum) }
			barrier
		}
	}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heapAtEnd := func(n int) uint64 {
				src := "\nfunc main() {\n\tMPI_Init()\n\tvar x = 1" + fmt.Sprintf(tc.loop, n) + "\n\tMPI_Finalize()\n}"
				last := strings.Count(src, "\n")
				var heap uint64
				defer SetTestStep(func(rank, tid, line int) {
					if line == last {
						runtime.GC()
						var ms runtime.MemStats
						runtime.ReadMemStats(&ms)
						heap = ms.HeapAlloc
					}
				})()
				prog := instrumented(t, src)
				res := Run(prog, Options{Procs: 2, Threads: 2})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if res.Stats.PhaseChecks < n {
					t.Fatalf("%d phase checks for %d iterations: the collective is not phase-counted", res.Stats.PhaseChecks, n)
				}
				return heap
			}
			small, large := heapAtEnd(2_000), heapAtEnd(20_000)
			growth := int64(large) - int64(small)
			t.Logf("heap at the last statement: %d B after 2000 iterations, %d B after 20000", small, large)
			if growth > 1<<20 {
				t.Errorf("heap grew by %d B from 2000 to 20000 iterations; want under 1 MiB", growth)
			}
		})
	}
}
