// Command bench is the repository benchmark: five workloads that follow
// the system's user paths (compile, sampled runs, exhaustive
// exploration, campaigns, the daemon), each checked against ground truth
// and reported as end-to-end metrics, plus a traced run that splits the
// cost across layers. See README.md for the workloads, the metrics and
// how to compare two result files.
//
// Usage (from the root of the repository):
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1|FILE] [-o FILE]
//	bash bench/run.sh -compare A.json B.json
//
// Every workload run happens in a fresh child process of this binary, so
// one workload's heap never weighs on the next and peak RSS is the
// workload's own. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	// spans is the span file a traced run writes.
	spans string
}

// childTimeout bounds one child process; a run that exceeds it is killed
// and reported as an error.
const childTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: compile|sample|explore|campaign|daemon|all")
		seed     = flag.Uint64("seed", 0, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traceArg = flag.String("trace", "0", "0: end-to-end run; 1 or a span file: traced run with per-layer metrics (spans default to .bench_build/spans/)")
		smoke    = flag.Bool("smoke", false, "about one second per workload on reduced inputs")
		out      = flag.String("o", "", "append every run to this result file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		child    = flag.Bool("child", false, "run one workload in this process (used by the parent)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(runCompare(os.Stdout, specFile, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	c := config{seed: *seed, seconds: *seconds, smoke: *smoke}
	switch *traceArg {
	case "0":
	case "1":
		c.trace = true
	default:
		c.trace, c.spans = true, *traceArg
	}
	if *smoke && !*child {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			c.seconds = 1
		}
	}

	if *child {
		c.workload = *workload
		c.spans = spanFile(c, c.workload, false)
		r, err := runWorkload(c)
		if err != nil {
			fatalf("%s: %v", c.workload, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if lookup(*workload) == nil {
		fatalf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadNames(), "|"))
	}

	p := provenance()
	fmt.Printf("# parcoach bench: commit %s, %s, %s/%s, nproc %d, GOMAXPROCS %d\n",
		p.Commit, p.GoVersion, p.OS, p.Arch, p.NProc, p.GOMAXPROCS)
	var runs []Run
	for _, name := range names {
		cc := c
		cc.workload = name
		cc.spans = spanFile(c, name, len(names) > 1)
		r, err := spawn(cc)
		if err != nil {
			fatalf("%s seed %d: %v", name, c.seed, err)
		}
		printRun(os.Stdout, r)
		runs = append(runs, *r)
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			fatalf("%v", err)
		}
	}
	printSummary(os.Stdout, runs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// spanFile is where a traced run of workload writes its spans: the file
// named by -trace, with the workload's name added before the extension
// when one command traces several workloads, or by default a file per
// workload and seed under .bench_build/spans/.
func spanFile(c config, workload string, several bool) string {
	switch {
	case !c.trace:
		return ""
	case c.spans == "":
		return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, c.seed))
	case several:
		ext := filepath.Ext(c.spans)
		return strings.TrimSuffix(c.spans, ext) + "-" + workload + ext
	}
	return c.spans
}

// spawn runs one workload in a child process of this binary and waits
// for it.
func spawn(c config) (*Run, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", c.workload,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64)}
	if c.trace {
		args = append(args, "-trace", c.spans)
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child exceeded %s", childTimeout)
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	var r Run
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &r, nil
}

// runWorkload sets the workload up several times (set-up time is the
// median), measures it, and in a traced run adds the per-layer probes.
func runWorkload(c config) (*Run, error) {
	def := lookup(c.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload")
	}
	begin := time.Now()
	r := newRun(c)
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		// Each set-up, and then the measurement, starts from a collected
		// heap, so that none pays for collecting the garbage of the one
		// before.
		runtime.GC()
		var str *tracer
		if i == setupReps-1 {
			str = tr // spans of the kept set-up only
		}
		start := time.Now()
		var err error
		if b, err = def.setup(c, r, str); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	r.Samples["setup_s"] = len(setups)
	runtime.GC()

	dur := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		r.set("setup_s", median(setups), "s")
		before := machineSpeed()
		b.measure(r, nil, dur)
		r.extra("machine.alloc_us", (before+machineSpeed())/2, "us")
		r.set("peak_rss_mb", peakRSS(), "MB")
		b.verify(r)
		r.finish(begin)
		return r, nil
	}
	r.extra("setup_s", median(setups), "s")
	// The traced run spends half the run length on the workload, with
	// every operation run once traced and once not, and the rest on the
	// layer probes.
	b.measure(r, tr, dur/2)
	probe(c, r)
	r.extra("peak_rss_mb", peakRSS(), "MB")
	r.Layers = tr.selfTimes()
	if err := tr.write(c.spans, r); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	b.verify(r)
	r.finish(begin)
	return r, nil
}

// peakRSS is this process's peak resident set size in MiB (the kernel's
// VmHWM).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Linux always answers; elsewhere the metric reads 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which keeps slow set-ups from moving it.
const setupReps = 5

// printRun writes one run's metrics as a table.
func printRun(w io.Writer, r *Run) {
	kind := "end-to-end"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "## %s seed=%d %s: correct=%t attempted=%d failed=%d\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	table := func(m map[string]Metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("   %-36s %14.4f %s", n, m[n].Value, m[n].Unit)
			if k, ok := r.Samples[n]; ok {
				line += fmt.Sprintf("  (n=%d)", k)
			}
			fmt.Fprintln(w, line)
		}
	}
	table(r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "   -- reported, not in BENCHMARK.json:")
		table(r.Extra)
	}
	if len(r.Layers) > 0 {
		var total float64
		for _, l := range r.Layers {
			total += l.SelfMS
		}
		fmt.Fprintln(w, "   -- self time per layer (traced operations and set-up):")
		for _, l := range r.Layers {
			fmt.Fprintf(w, "   %-14s %12.1f ms %6.1f%% %8d spans\n", l.Layer, l.SelfMS, 100*l.SelfMS/total, l.Spans)
		}
	}
}

// printSummary writes the final line: for one run its correctness,
// counts and metrics; for several, the same keys with metrics named
// "<workload>/<metric>" and counts summed.
func printSummary(w io.Writer, runs []Run) {
	type summary struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}
	s := summary{Correct: true, Metrics: map[string]Metric{}}
	for _, r := range runs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(runs) > 1 {
				n = r.Workload + "/" + n
			}
			s.Metrics[n] = m
		}
	}
	data, err := json.Marshal(s)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(w, string(data))
}

// machineSpeed times a fixed allocation-heavy computation that shares no
// code with the system: microseconds to build 200 small maps of 20
// slices each, the median over 200 ms. On a shared host this cost moves
// with the neighbours' memory traffic, by up to 2.1 times within a
// minute on the reference machine, and the benchmark's timings move
// with the host too; recorded around each run, it lets a reader tell the
// machine's drift from a change.
func machineSpeed() float64 {
	var us []float64
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		t0 := time.Now()
		maps := make([]map[int][]byte, 200)
		for i := range maps {
			maps[i] = make(map[int][]byte)
			for k := 0; k < 20; k++ {
				maps[i][k] = make([]byte, 64)
			}
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		allocSink = maps
	}
	return median(us)
}

// allocSink keeps machineSpeed's maps reachable, so the compiler cannot
// drop the allocations.
var allocSink []map[int][]byte
