package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parcoach"
	"parcoach/internal/mhgen"
	"parcoach/internal/serve"
	"parcoach/internal/workload"
)

// The daemon workload: internal/serve with its default Config on an
// in-process loopback listener, driven by a closed loop of one client
// connection over a seeded request mix, in passes of daemonPass
// requests; each request is timed from its send to its answer. An open loop, in which
// a request is timed from when it was due, measured mostly how late an
// idle vCPU woke up and how long requests queued behind one another:
// its median and tails moved two-fold between runs of one commit, so it
// only feeds the serve probe's loadgen metrics, at lightRate.
const (
	// daemonPass requests make one pass, about 0.4 s at the closed
	// loop's 2300–2800 req/s on the reference machine.
	daemonPass = 1000
	// senders is the serve probe's open-loop connection count.
	senders = 2
	// lightRate is the serve probe's open-loop rate in requests per
	// second.
	lightRate = 75.0
	// primedSources are compiled in set-up and then re-requested (cache
	// reads); writeBases are the programs that unique sources vary.
	primedSources = 32
	writeBases    = 64
	// exploreSchedules per /explore request.
	exploreSchedules = 8
)

// Request kinds and their share of the mix, in percent.
const (
	reqHit = iota
	reqWrite
	reqRun
	reqExplore
)

var daemonMix = [...]int{reqHit: 55, reqWrite: 10, reqRun: 20, reqExplore: 15}

var reqNames = [...]string{reqHit: "compile-hit", reqWrite: "compile-unique", reqRun: "run-replay", reqExplore: "explore-random"}

// daemonSources are the daemon workload's programs with their expected
// answers, computed by direct compiles in set-up.
type daemonSources struct {
	primed, bases        []*mhgen.Program
	primedDiag, baseDiag [][]string
	primedBody           [][]byte
	// runSrc is a planted rank-dependent collective: every schedule of
	// its instrumented run stops at a collective check. exploreSrc is a
	// correct micro program: every schedule ends clean.
	runSrc, exploreSrc workload.Workload
}

func newDaemonSources(seed uint64, tr *tracer) (*daemonSources, error) {
	d := &daemonSources{
		runSrc:     workload.Micro(workload.BugRankDependentCollective),
		exploreSrc: workload.Micro(workload.BugNone),
	}
	n := primedSources + writeBases
	gps := make([]*mhgen.Program, n)
	diags := make([][]string, n)
	first := seed * uint64(n)
	for k := range gps {
		t0 := time.Now()
		gp := mhgen.FromSeed(first + uint64(k))
		tr.add("mhgen.generate", "mhgen", -1, -1, t0, time.Now())
		t0 = time.Now()
		p, err := parcoach.Compile(gp.Name+".mh", gp.Source, parcoach.Options{Mode: parcoach.ModeFull, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %v", gp.Name, err)
		}
		tr.addCompile(-1, t0, time.Now(), p)
		diags[k] = []string{}
		for _, d := range p.Diagnostics() {
			diags[k] = append(diags[k], d.String())
		}
		gps[k] = gp
	}
	d.primed, d.bases = gps[:primedSources], gps[primedSources:]
	d.primedDiag, d.baseDiag = diags[:primedSources], diags[primedSources:]
	for _, gp := range d.primed {
		d.primedBody = append(d.primedBody, mustJSON(map[string]any{"name": gp.Name + ".mh", "source": gp.Source}))
	}
	return d, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are marshalled
	}
	return b
}

// daemonReq is one request of the mix with what its answer must be.
type daemonReq struct {
	kind int
	path string
	body []byte
	// diag is the expected /compile diagnostics.
	diag []string
}

// request builds request number i, of kind k. Unique sources append the
// request number as a trailing comment, which changes the cache key but
// not the diagnostics.
func (d *daemonSources) request(k, i int) daemonReq {
	switch k {
	case reqHit:
		j := i % primedSources
		return daemonReq{kind: k, path: "/compile", body: d.primedBody[j], diag: d.primedDiag[j]}
	case reqWrite:
		j := i % writeBases
		gp := d.bases[j]
		src := fmt.Sprintf("%s\n// request %d\n", gp.Source, i)
		return daemonReq{kind: k, path: "/compile", diag: d.baseDiag[j],
			body: mustJSON(map[string]any{"name": gp.Name + ".mh", "source": src})}
	case reqRun:
		return daemonReq{kind: k, path: "/run", body: mustJSON(map[string]any{
			"name": d.runSrc.Name + ".mh", "source": d.runSrc.Source, "schedule": fmt.Sprintf("rand:%d", i)})}
	default:
		return daemonReq{kind: k, path: "/explore", body: mustJSON(map[string]any{
			"name": d.exploreSrc.Name + ".mh", "source": d.exploreSrc.Source,
			"strategy": "random", "schedules": exploreSchedules, "seed": i, "workers": 1})}
	}
}

// mix returns n request kinds in seeded order, each kind's share of them
// exactly its share of the mix (rounded down, hits making up the rest).
// Drawn one by one, the /explore share of a daemonPass-request pass
// would vary by 7.5% of itself (one standard deviation), and the
// throughput with it.
func mix(rng *rand.Rand, n int) []int {
	kinds := make([]int, 0, n)
	for k, w := range daemonMix {
		for j := 0; j < n*w/100; j++ {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, reqHit)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

type daemonResp struct {
	Diagnostics []string `json:"diagnostics"`
	Outcome     string   `json:"outcome"`
	Schedules   int      `json:"schedules"`
	Verdicts    []struct {
		Outcome string `json:"outcome"`
	} `json:"verdicts"`
}

// checkDaemon judges one answer: status 200, /compile diagnostics
// byte-identical to the direct compile, /run stopped by the check, and
// /explore clean on every schedule.
func checkDaemon(q daemonReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", reqNames[q.kind], status, body)
	}
	var resp daemonResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %v", reqNames[q.kind], err)
	}
	switch q.kind {
	case reqHit, reqWrite:
		if !slices.Equal(resp.Diagnostics, q.diag) {
			return fmt.Errorf("%s: diagnostics differ from the direct compile", reqNames[q.kind])
		}
	case reqRun:
		if resp.Outcome != parcoach.RunCheckAbort.String() {
			return fmt.Errorf("run-replay: outcome %q, want %q", resp.Outcome, parcoach.RunCheckAbort)
		}
	case reqExplore:
		if resp.Schedules != exploreSchedules {
			return fmt.Errorf("explore-random: %d schedules, want %d", resp.Schedules, exploreSchedules)
		}
		for _, v := range resp.Verdicts {
			if v.Outcome != parcoach.RunClean.String() {
				return fmt.Errorf("explore-random: correct program ended %s", v.Outcome)
			}
		}
	}
	return nil
}

// daemon is a running server on a loopback listener with its client.
type daemon struct {
	src    *daemonSources
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	// unique numbers the unique sources.
	unique atomic.Int64
}

func startDaemon(src *daemonSources) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	d := &daemon{
		src: src, srv: srv, hs: &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
		}},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return d, nil
}

func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
}

// do sends one request and checks its answer.
func (d *daemon) do(q daemonReq) error {
	resp, err := d.client.Post(d.base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return fmt.Errorf("%s: %v", reqNames[q.kind], err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: %v", reqNames[q.kind], err)
	}
	return checkDaemon(q, resp.StatusCode, body)
}

// prime compiles the primed sources through the server and warms the
// /run and /explore sessions, checking every answer.
func (d *daemon) prime(r *Run) {
	for j := 0; j < primedSources; j++ {
		r.check(d.do(d.src.request(reqHit, j)))
	}
	for _, k := range []int{reqRun, reqExplore} {
		r.check(d.do(d.src.request(k, 0)))
	}
}

func setupDaemon(c config, r *Run, tr *tracer) (bench, error) {
	src, err := newDaemonSources(c.seed, tr)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(src)
	if err != nil {
		return nil, err
	}
	d.prime(r)
	tr.add("serve.start+prime", "serve", -1, -1, t0, time.Now())
	passLen := daemonPass
	if c.smoke {
		passLen /= 10
	}
	kinds := mix(rand.New(rand.NewSource(int64(c.seed)+1)), passLen)
	r.Params["loop"] = "closed"
	r.Params["connections"] = 1
	mixp := map[string]int{}
	for k, w := range daemonMix {
		mixp[reqNames[k]] = w
	}
	r.Params["mix_pct"] = mixp
	r.Params["primed_sources"] = primedSources
	r.Params["write_bases"] = writeBases
	r.Params["explore_schedules"] = exploreSchedules
	r.Params["server_config"] = "serve.Config{} (defaults)"
	return &closed{
		passLen: len(kinds),
		op: func(i int, tr *tracer) (int, error) {
			q := d.request(kinds[i%len(kinds)], i)
			t0 := time.Now()
			err := d.do(q)
			tr.add(reqNames[q.kind], "serve", -1, i, t0, time.Now())
			return 1, err
		},
		done: d.close,
	}, nil
}

// request builds request number i of kind k; a unique source takes the
// next number of its own, so that it stays unique when a request is
// repeated.
func (d *daemon) request(k, i int) daemonReq {
	if k == reqWrite {
		i = int(d.unique.Add(1))
	}
	return d.src.request(k, i)
}

// sent is one open-loop request's latency and lateness (milliseconds)
// and result.
type sent struct {
	lat, late float64
	err       error
}

// openLoop sends one request per kind on senders connections,
// request i due at start + i/rate whether or not earlier ones have
// finished. Latency runs from the due time, so a stall also charges the
// requests queued behind it; late is how far behind schedule each was
// sent. The loop wakes up sleepSlack before each due time.
func (d *daemon) openLoop(kinds []int, rate float64) []sent {
	slack := sleepSlack()
	out := make([]sent, len(kinds))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(kinds) {
					return
				}
				q := d.request(kinds[i], i)
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if w := time.Until(due) - slack; w > 0 {
					time.Sleep(w)
				}
				at := time.Now()
				err := d.do(q)
				end := time.Now()
				// A request the timer woke up early is timed from its send.
				from := due
				if at.Before(due) {
					from = at
				}
				out[i] = sent{lat: ms(end.Sub(from)), late: max(0, ms(at.Sub(due))), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepSlack measures how late a timer wakes its goroutine here: the
// median of 40 one-millisecond sleeps, 0.6–0.7 ms on the reference
// machine. The open loop sleeps that much less, so that a request is
// sent close to its due time instead of a timer's lateness after it.
func sleepSlack() time.Duration {
	late := make([]float64, 40)
	for i := range late {
		due := time.Now().Add(time.Millisecond)
		time.Sleep(time.Until(due))
		late[i] = float64(time.Since(due))
	}
	return time.Duration(median(late))
}
