package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"parcoach"
	"parcoach/internal/ast"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/monitor"
	"parcoach/internal/sched"
	"parcoach/internal/serve"
	"parcoach/internal/workload"
)

// probe runs the deterministic ablations behind the per-layer metrics.
// Each one drives a layer through its public entry points on inputs
// derived from the seed, so every count repeats exactly for a seed, and
// each timing is the difference between two runs that differ in one
// layer only.
func probe(c config, r *Run) {
	for _, p := range []struct {
		name string
		run  func(config, *Run)
	}{
		{"compile", probeCompile}, {"run", probeRun}, {"monitor", probeMonitor},
		{"explore", probeExplore}, {"campaign", probeCampaign}, {"serve", probeServe},
	} {
		t0 := time.Now()
		p.run(c, r)
		r.extra("probe_s."+p.name, time.Since(t0).Seconds(), "s")
	}
}

// compileBuckets splits one compile's Timing.Passes by layer.
type compileBuckets struct {
	frontend, analysis, instrument, backend, lowerRegalloc, overhead, total float64
}

func bucketsOf(p *parcoach.Program) compileBuckets {
	var b compileBuckets
	var passes float64
	for _, pt := range p.Timing.Passes {
		d := ms(pt.Duration)
		passes += d
		switch passLayer(pt.Name) {
		case "frontend":
			b.frontend += d
		case "analysis":
			b.analysis += d
		case "instrument":
			b.instrument += d
		default:
			b.backend += d
			if pt.Name == "lower" || pt.Name == "regalloc" {
				b.lowerRegalloc += d
			}
		}
	}
	b.total = ms(p.Timing.Total)
	b.overhead = b.total - passes
	return b
}

// probeCompile compiles the Figure 1 set and the first generated block
// of the compile workload five times each and reads the pass timings
// and compile statistics; the Figure 1 set is compiled in ModeBaseline
// too, for the paper's Figure 1 overhead.
func probeCompile(c config, r *Run) {
	const reps = 5
	seq := compileSequence(c, nil)[:5+compileBlock]
	t0 := time.Now()
	for i := 0; i < compileBlock; i++ {
		mhgen.FromSeed(c.seed*compileDraw + uint64(i))
	}
	r.set("mhgen.generate_ms", ms(time.Since(t0))/compileBlock, "ms")

	comp := parcoach.NewCompiler(1)
	runs := make([][]compileBuckets, len(seq))
	base := make([][]float64, len(seq))
	var stmts, checks, irInsts, spills int
	for rep := 0; rep < reps; rep++ {
		for i, it := range seq {
			p, err := comp.Compile(it.name, it.src, parcoach.Options{Mode: parcoach.ModeFull})
			r.check(checkCompile(it, p, err))
			if err != nil {
				return
			}
			runs[i] = append(runs[i], bucketsOf(p))
			if rep == 0 {
				st := p.Stats
				stmts += st.Statements
				checks += st.Checks.CCChecks + st.Checks.ReturnChecks + st.Checks.PhaseCounts + st.Checks.MonoChecks
				irInsts += st.IRInsts
				spills += st.Spills
			}
			if it.fig1 {
				bp, err := comp.Compile(it.name, it.src, parcoach.Options{Mode: parcoach.ModeBaseline})
				r.check(err)
				if err != nil {
					return
				}
				base[i] = append(base[i], ms(bp.Timing.Total))
			}
		}
	}
	// Per program, the median of its compiles, bucket by bucket.
	field := func(get func(compileBuckets) float64) []float64 {
		out := make([]float64, len(runs))
		for i, bs := range runs {
			xs := make([]float64, len(bs))
			for k, b := range bs {
				xs[k] = get(b)
			}
			out[i] = median(xs)
		}
		return out
	}
	frontend := field(func(b compileBuckets) float64 { return b.frontend })
	analysis := field(func(b compileBuckets) float64 { return b.analysis })
	total := field(func(b compileBuckets) float64 { return b.total })
	var fullFig1, baseFig1 float64
	for i, it := range seq {
		if it.fig1 {
			fullFig1 += total[i]
			baseFig1 += median(base[i])
		}
	}
	r.set("frontend.ms_p50", median(frontend), "ms")
	r.set("frontend.stmts_per_ms", float64(stmts)/sum(frontend), "1/ms")
	r.set("analysis.ms_p50", median(analysis), "ms")
	r.set("analysis.share", sum(analysis)/sum(total), "ratio")
	r.set("compile.fig1_overhead_pct", 100*(fullFig1/baseFig1-1), "%")
	r.set("instrument.ms_p50", median(field(func(b compileBuckets) float64 { return b.instrument })), "ms")
	r.set("instrument.checks", float64(checks), "count")
	r.set("passes.backend_ms_p50", median(field(func(b compileBuckets) float64 { return b.backend })), "ms")
	r.set("passes.lower_regalloc_ms_p50", median(field(func(b compileBuckets) float64 { return b.lowerRegalloc })), "ms")
	r.set("passes.ir_insts", float64(irInsts), "count")
	r.set("passes.spills", float64(spills), "count")
	r.set("pipeline.overhead_ms_p50", median(field(func(b compileBuckets) float64 { return b.overhead })), "ms")
	for _, name := range []string{"frontend.ms_p50", "analysis.ms_p50", "instrument.ms_p50",
		"passes.backend_ms_p50", "passes.lower_regalloc_ms_p50", "pipeline.overhead_ms_p50"} {
		r.Samples[name] = len(seq)
	}
}

// countingSched counts the scheduling decisions of a run.
type countingSched struct {
	sched.Scheduler
	decisions int
}

func (s *countingSched) Next(c sched.Choice) sched.ThreadID {
	s.decisions++
	return s.Scheduler.Next(c)
}

// recordingSched makes the controller record the run's event trace
// (it implements sched.TraceSource) while another scheduler decides.
type recordingSched struct {
	sched.Scheduler
	events monitor.EventTrace
}

func (s *recordingSched) EventTrace() *monitor.EventTrace { return &s.events }

// probeRun runs the sample workload's programs under four variants that
// differ in one layer each, on identical seeded schedules: free-running
// (no scheduler), serialized with checks and value oracle (as sample
// runs), serialized without the value oracle, and the uninstrumented
// program serialized.
func probeRun(c config, r *Run) {
	scale, reps := workload.ScaleA, 3
	if c.smoke {
		scale, reps = workload.ScaleS, 1
	}
	// Per variant, the sums over programs of each program's median time
	// and median step count.
	type variant struct{ ms, steps float64 }
	var free, full, noVal, uninst variant
	var schedules, steps, colls, decisions, ccChecks, valueChecks int
	for pi, w := range workload.Figure1Set(scale) {
		p, err := parcoach.Compile(w.Name+".mh", w.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 2})
		r.check(err)
		if err != nil {
			return
		}
		opts := interp.Options{Procs: 2, Threads: 2, ValueCheck: true}
		fullS := interp.NewSession(instrumented(p), opts)
		opts.ValueCheck = false
		noValS := interp.NewSession(instrumented(p), opts)
		uninstS := interp.NewSession(p.Source, opts)
		var times, counts [4][]float64 // free, full, noVal, uninst
		timed := func(v int, s *interp.Session, sc sched.Scheduler) *interp.Result {
			t0 := time.Now()
			res := s.Run(sc)
			times[v] = append(times[v], ms(time.Since(t0)))
			counts[v] = append(counts[v], float64(res.Stats.Steps))
			if res.Err != nil {
				r.check(fmt.Errorf("%s: correct program failed: %v", w.Name, res.Err))
			} else {
				r.check(nil)
			}
			return res
		}
		for rep := 0; rep < reps; rep++ {
			seed := int64(c.seed)<<16 + int64(rep*8+pi)
			timed(0, fullS, nil)
			cs := &countingSched{Scheduler: sched.NewRandom(seed)}
			res := timed(1, fullS, cs)
			schedules++
			steps += int(res.Stats.Steps)
			colls += int(res.Stats.Collectives)
			decisions += cs.decisions
			ccChecks += res.Stats.CCChecks
			valueChecks += res.Stats.ValueChecks
			timed(2, noValS, sched.NewRandom(seed))
			timed(3, uninstS, sched.NewRandom(seed))
		}
		for v, into := range []*variant{&free, &full, &noVal, &uninst} {
			into.ms += median(times[v])
			into.steps += median(counts[v])
		}
	}
	n := float64(schedules)
	r.set("interp.free_steps_per_s", free.steps/free.ms*1e3, "1/s")
	r.set("interp.steps_per_schedule", float64(steps)/n, "count")
	r.set("mpi.collectives_per_schedule", float64(colls)/n, "count")
	r.set("sched.serialized_steps_per_s", full.steps/full.ms*1e3, "1/s")
	r.set("sched.serialize_cost_ratio", (full.ms/full.steps)/(free.ms/free.steps), "ratio")
	r.set("sched.decisions_per_schedule", float64(decisions)/n, "count")
	r.set("verifier.cc_overhead_pct", 100*(noVal.ms/uninst.ms-1), "%")
	r.set("verifier.value_overhead_pct", 100*(full.ms/noVal.ms-1), "%")
	r.set("verifier.cc_checks_per_schedule", float64(ccChecks)/n, "count")
	r.set("verifier.value_checks_per_schedule", float64(valueChecks)/n, "count")
	r.Params["probe_run_schedules"] = schedules
}

// instrumented returns the tree a ModeFull program runs.
func instrumented(p *parcoach.Program) *ast.Program {
	if p.Instrumented != nil {
		return p.Instrumented
	}
	return p.Source
}

// probeMonitor runs the explore corpus's programs under seeded random
// schedules, once plainly and once with the happens-before event trace
// recorded, then analyses each trace. A recorded run must end exactly
// as the plain run of the same schedule. The recording overhead is the
// median over schedules of the recorded run's time against the plain
// one's, which compares each schedule with itself.
func probeMonitor(c config, r *Run) {
	n, k := 10, 32
	if c.smoke {
		n, k = 3, 4
	}
	items, err := exploreItems(nil, true, 0, n)
	r.check(err)
	if err != nil {
		return
	}
	var recordRatio, analyzeT []float64
	events := 0
	an := new(monitor.Analysis)
	for pi, it := range items {
		sess := interp.NewSession(instrumented(it.prog), interp.Options{
			Procs: it.procs, Threads: it.threads, ValueCheck: true, MaxSteps: explore.DefaultMaxSteps,
		})
		for j := 0; j < k; j++ {
			seed := int64(c.seed)<<16 + int64(pi*k+j)
			rs := &recordingSched{Scheduler: sched.NewRandom(seed)}
			var plain, traced *interp.Result
			var t [2]time.Duration // plain, recorded
			for v := 0; v < 2; v++ {
				// The second run of a schedule is the faster one, so the
				// order alternates.
				recorded := (j+v)%2 == 1
				t0 := time.Now()
				if recorded {
					traced = sess.Run(rs)
					t[1] = time.Since(t0)
				} else {
					plain = sess.Run(sched.NewRandom(seed))
					t[0] = time.Since(t0)
				}
			}
			recordRatio = append(recordRatio, float64(t[1])/float64(t[0]))
			if plain.Outcome() != traced.Outcome() {
				r.check(fmt.Errorf("%s: %s ended %s, recorded %s", it.name, sched.RandomToken(seed), plain.Outcome(), traced.Outcome()))
			} else {
				r.check(nil)
			}
			events += rs.events.Len()
			t0 := time.Now()
			an.Analyze(&rs.events)
			analyzeT = append(analyzeT, ms(time.Since(t0)))
		}
	}
	runs := float64(len(recordRatio))
	r.set("monitor.events_per_schedule", float64(events)/runs, "count")
	r.set("monitor.trace_record_overhead_pct", 100*(median(recordRatio)-1), "%")
	r.set("monitor.analyze_us_per_schedule", sum(analyzeT)/runs*1e3, "us")
	r.Samples["monitor.trace_record_overhead_pct"] = len(recordRatio)
	r.Params["probe_monitor_schedules"] = len(recordRatio)
}

// probeExplore explores the racer and the first generated programs of
// the explore corpus on one worker, where DPOR's explored set and
// counts are deterministic even when the budget truncates it.
func probeExplore(c config, r *Run) {
	n := 10
	if c.smoke {
		n = 3
	}
	items, err := exploreItems(nil, true, 0, n)
	r.check(err)
	if err != nil {
		return
	}
	var schedules, exhausted, skips int
	var elapsed time.Duration
	var firsts []float64
	for _, it := range items {
		t0 := time.Now()
		rep := exploreOnce(it, exploreBudget)
		elapsed += time.Since(t0)
		r.check(checkExplore(it, rep))
		schedules += rep.Schedules
		skips += rep.SleepSkips
		if rep.Exhausted {
			exhausted++
		}
		if rep.FirstFailure != nil {
			firsts = append(firsts, float64(rep.FirstFailure.Index))
		}
	}
	r.set("explore.schedules", float64(schedules), "count")
	r.set("explore.exhausted", float64(exhausted), "count")
	r.set("explore.sleep_skip_ratio", float64(skips)/float64(skips+schedules), "ratio")
	if len(firsts) > 0 {
		r.set("explore.first_detect_p50", median(firsts), "count")
	}
	r.Samples["explore.first_detect_p50"] = len(firsts)
	r.set("explore.us_per_schedule", float64(elapsed.Microseconds())/float64(schedules), "us")
}

// probeCampaign runs one campaign window with and without mutant
// reduction; the difference is the reduction's cost.
func probeCampaign(c config, r *Run) {
	reps := 2
	if c.smoke {
		reps = 1
	}
	start := campaignWindows[0]
	want := plantedLabels(windowSeeds(start))
	var exploreT, fullT []float64
	var rep *parcoach.CampaignReport
	for i := 0; i < reps; i++ {
		for _, noReduce := range []bool{true, false} {
			t0 := time.Now()
			cr, err := runCampaign(start, c.seed, noReduce)
			d := ms(time.Since(t0))
			if err == nil {
				err = checkCampaign(start, cr, want, "")
			}
			r.check(err)
			if err != nil {
				return
			}
			if noReduce {
				exploreT = append(exploreT, d)
			} else {
				fullT = append(fullT, d)
				rep = cr
			}
		}
	}
	explore, full := median(exploreT), median(fullT)
	r.set("campaign.explore_ms_p50", explore, "ms")
	r.set("campaign.reduce_ms_p50", full-explore, "ms")
	r.set("campaign.reduce_share", (full-explore)/full, "ratio")
	r.Samples["campaign.explore_ms_p50"], r.Samples["campaign.reduce_ms_p50"] = reps, reps
	r.set("campaign.runs", float64(rep.Runs), "count")
	r.set("campaign.coverage", float64(rep.Coverage), "count")
	r.set("campaign.coverage_per_run", float64(rep.Coverage)/float64(rep.Runs), "ratio")
	r.set("campaign.bugs", float64(len(rep.Bugs)), "count")
	r.set("campaign.mutants", float64(rep.Mutants), "count")
	r.Params["probe_campaign_window"] = start
}

// serveDirect and serveLoop size the serve probe: requests answered by
// calling ServeHTTP directly (enough unique sources to fill the default
// cache and evict), the first serveLoop of them again over loopback
// HTTP, then a light open loop.
const (
	serveDirect = 1500
	serveLoop   = 200
	serveLightS = 1.0
)

// probeServe drives the daemon's request mix through Server.ServeHTTP
// with httptest, then the same requests over a loopback connection; the
// difference in median latency is the HTTP stack's share. The server's
// Snapshot gives the cache and admission counters.
func probeServe(c config, r *Run) {
	direct, loop, light := serveDirect, serveLoop, serveLightS
	if c.smoke {
		direct, loop, light = 150, 50, 0.3
	}
	src, err := newDaemonSources(c.seed, nil)
	r.check(err)
	if err != nil {
		return
	}
	srv := serve.New(serve.Config{})
	call := func(q daemonReq) float64 {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", q.path, bytes.NewReader(q.body)))
		d := ms(time.Since(t0))
		r.check(checkDaemon(q, rec.Code, rec.Body.Bytes()))
		return d
	}
	for j := range src.primed {
		call(src.request(reqHit, j))
	}
	call(src.request(reqRun, 0))
	call(src.request(reqExplore, 0))

	rng := rand.New(rand.NewSource(int64(c.seed) + 2))
	kinds := mix(rng, direct)
	reqs := make([]daemonReq, len(kinds))
	directLat := make([]float64, len(kinds))
	for i, k := range kinds {
		reqs[i] = src.request(k, i+1)
		directLat[i] = call(reqs[i])
	}
	st := srv.Snapshot()
	r.set("serve.cache_hit_rate", st.Cache.HitRate, "ratio")
	r.set("serve.evicted", float64(st.Cache.Evicted), "count")
	r.set("serve.rejected", float64(st.Queue.Rejected), "count")
	r.set("serve.warm_sessions", float64(st.Sessions.Warm), "count")

	d, err := startDaemon(src)
	r.check(err)
	if err != nil {
		return
	}
	defer d.close()
	d.prime(r)
	loopLat := make([]float64, loop)
	for i := 0; i < loop; i++ {
		t0 := time.Now()
		err := d.do(reqs[i])
		loopLat[i] = ms(time.Since(t0))
		r.check(err)
	}
	r.set("serve.http_overhead_ms_p50", median(loopLat)-median(directLat[:loop]), "ms")
	r.Samples["serve.http_overhead_ms_p50"] = loop

	out := d.openLoop(mix(rng, int(lightRate*light)), lightRate)
	r.Params["probe_serve_light_rate"] = lightRate
	r.Params["probe_serve_senders"] = senders
	var lat, late []float64
	for _, s := range out {
		r.check(s.err)
		lat = append(lat, s.lat)
		late = append(late, s.late)
	}
	r.set("loadgen.late_ms_p99", percentile(sorted(late), 99), "ms")
	r.set("loadgen.sent", float64(len(out)), "count")
	r.set("loadgen.light_p50_ms", median(lat), "ms")
	r.set("loadgen.light_p99_ms", percentile(sorted(lat), 99), "ms")
	for _, name := range []string{"loadgen.late_ms_p99", "loadgen.light_p50_ms", "loadgen.light_p99_ms"} {
		r.Samples[name] = len(out)
	}
}
