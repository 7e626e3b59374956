package main

import "time"

// bench is a workload after set-up.
type bench interface {
	// measure runs the workload for dur and records its metrics in r.
	// With a tracer it traces half of the operations it runs and records
	// the trace overhead instead of the end-to-end metrics.
	measure(r *Run, tr *tracer, dur time.Duration)
	// verify checks, untimed, the seeded inputs that the measured loop
	// does not run.
	verify(r *Run)
	close()
}

type workloadDef struct {
	name  string
	setup func(c config, r *Run, tr *tracer) (bench, error)
}

var workloads = []workloadDef{
	{"compile", setupCompile},
	{"sample", setupSample},
	{"explore", setupExplore},
	{"campaign", setupCampaign},
	{"daemon", setupDaemon},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// closed is a closed loop with one caller: the next operation starts
// when the previous one has returned. Operation i works on entry i mod
// passLen of a fixed sequence, so passLen operations in a row, a pass,
// work on every entry once (see reportOps). The loop runs until the run
// length is up and the first pass is complete.
//
// Every operation runs on one worker, so the loop keeps one vCPU busy
// and leaves the other to the Go runtime. The reference machine is a
// guest on a shared host that gives a vCPU the guest leaves idle to its
// other guests, and work handed to that vCPU waits for it to come back
// (the guest counts the wait as steal time). With a width-2 compile pool
// the steal time moved between 0 and 18%, runs of one commit differed
// by a third, and the quartile spread of ten runs' p50_ms was 19–37%;
// with one worker the steal time stayed under 1% on a quiet host and
// that spread was 3–7%. (On a busy host the garbage collector's wake-ups
// of the other vCPU still draw steal time, which reportOps's medians
// absorb.) Two callers, which keep both vCPUs busy, made each one's
// operations wait on the other's: two sets of ten compile runs had
// medians of 1.70 and 1.25 ms.
type closed struct {
	passLen int
	// input, when set, names the input entry k of the sequence works on,
	// for a sequence that repeats an input; otherwise every entry is an
	// input of its own.
	input []int
	// op runs operation i, recording spans on tr when it is non-nil, and
	// returns the work units it completed (what ops_per_s counts) and an
	// error when its output was wrong.
	op func(i int, tr *tracer) (units int, err error)
	// check, when set, is verify.
	check func(r *Run)
	// done, when set, is close.
	done func()
}

func (l *closed) close() {
	if l.done != nil {
		l.done()
	}
}

func (l *closed) verify(r *Run) {
	if l.check != nil {
		l.check(r)
	}
}

func (l *closed) measure(r *Run, tr *tracer, dur time.Duration) {
	if tr != nil {
		l.measureTraced(r, tr, dur)
		return
	}
	var ops []opResult
	start := time.Now()
	for i := 0; i < l.passLen || time.Since(start) < dur; i++ {
		t0 := time.Now()
		n, err := l.op(i, nil)
		ops = append(ops, opResult{lat: ms(time.Since(t0)), units: n})
		r.check(err)
	}
	reportOps(r, ops, l.passLen, l.input)
	r.Params["measured_s"] = time.Since(start).Seconds()
}

// measureTraced runs every operation twice, once traced and once not,
// alternating which goes first, until dur is up. The trace overhead is
// the median over operations of the traced run's time against the
// untraced one's, which compares each operation with itself.
func (l *closed) measureTraced(r *Run, tr *tracer, dur time.Duration) {
	var plain, traced, ratio []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		var t [2]float64 // untraced, traced
		for k := 0; k < 2; k++ {
			traceIt := (i + k) % 2
			var optr *tracer
			if traceIt == 1 {
				optr = tr
			}
			t0 := time.Now()
			_, err := l.op(i, optr)
			t[traceIt] = ms(time.Since(t0))
			r.check(err)
		}
		plain = append(plain, t[0])
		traced = append(traced, t[1])
		ratio = append(ratio, t[1]/t[0])
	}
	r.set("trace.overhead_pct", 100*(median(ratio)-1), "%")
	r.Samples["trace.overhead_pct"] = len(ratio)
	tracedMedians(r, plain, traced)
}

// tracedMedians reports the median latency of a traced run's untraced
// and traced operations.
func tracedMedians(r *Run, plain, traced []float64) {
	r.extra("p50_ms", median(plain), "ms")
	r.extra("traced_p50_ms", median(traced), "ms")
	r.Samples["p50_ms"] = len(plain)
	r.Samples["traced_p50_ms"] = len(traced)
}
