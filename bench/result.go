package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// schema versions the result file; -compare refuses files of another
// version rather than comparing fields whose meaning changed.
const schema = "parcoach-bench/1"

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// LayerTime is one layer's self time in a traced run: the time its spans
// cover minus the part covered by their child spans.
type LayerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

// Run is the result of one workload run in one child process.
type Run struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Smoke      bool              `json:"smoke,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
	// Extra holds measured values that BENCHMARK.json does not list:
	// failed_frac (which -compare holds to a bound of 0), the machine's
	// speed, the run's wall time, and in traced runs the end-to-end
	// values.
	Extra map[string]Metric `json:"extra,omitempty"`
	// Samples is the number of observations behind each percentile or
	// median in Metrics and Extra.
	Samples map[string]int `json:"samples"`
	// Params records the workload's parameters: input sizes, rates,
	// budgets and request mixes.
	Params map[string]any `json:"params"`
	Layers []LayerTime    `json:"layers,omitempty"`
	// Errors holds the first failed checks, for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

func newRun(c config) *Run {
	return &Run{
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		Smoke:      c.smoke,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]Metric{},
		Extra:      map[string]Metric{},
		Samples:    map[string]int{},
		Params:     map[string]any{},
	}
}

// maxErrors bounds Run.Errors; the count is in Failed.
const maxErrors = 8

// check counts one attempted operation and records it as failed when err
// is non-nil.
func (r *Run) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

// finish records the share of failed operations and the run's wall
// time, begun at begin, and judges the run correct when nothing failed.
func (r *Run) finish(begin time.Time) {
	r.extra("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	r.extra("run_wall_s", time.Since(begin).Seconds(), "s")
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

func (r *Run) set(name string, v float64, unit string) { r.Metrics[name] = Metric{v, unit} }

func (r *Run) extra(name string, v float64, unit string) { r.Extra[name] = Metric{v, unit} }

// opResult is one measured operation: its latency in milliseconds and
// the work units it completed.
type opResult struct {
	lat   float64
	units int
}

// reportOps turns a closed loop's operations, in order, into its
// end-to-end metrics. The reference machine is a guest on a shared host
// whose hypervisor takes a vCPU away for milliseconds at a time, for
// anywhere from a tenth to a third of the run, so the statistics are
// robust ones: each input's latency and work units are the medians of
// its operations over the run, p50_ms and p95_ms are taken over the
// inputs' latencies, and ops_per_s is the throughput of a typical pass,
// its inputs' units over their latencies. A throughput summed over
// every operation instead charges each stolen interval to the run: in
// six daemon runs it fell from 2180 to 1540 requests/s as the steal
// time rose from 8% to 32%, while the medians moved by under 5%. input
// is as in closed.
func reportOps(r *Run, ops []opResult, passLen int, input []int) {
	entry := func(i int) int {
		if input != nil {
			return input[i%passLen]
		}
		return i % passLen
	}
	lats, units := map[int][]float64{}, map[int][]float64{}
	total := 0
	for i, o := range ops {
		in := entry(i)
		lats[in] = append(lats[in], o.lat)
		units[in] = append(units[in], float64(o.units))
		total += o.units
	}
	lat, unit := map[int]float64{}, map[int]float64{}
	var typical []float64
	for in, l := range lats {
		lat[in], unit[in] = median(l), median(units[in])
		typical = append(typical, lat[in])
	}
	t := sorted(typical)
	r.set("p50_ms", percentile(t, 50), "ms")
	r.set("p95_ms", percentile(t, 95), "ms")
	r.Samples["p50_ms"], r.Samples["p95_ms"] = len(t), len(t)

	var passUnits, passMS float64
	for i := 0; i < passLen; i++ {
		passUnits += unit[entry(i)]
		passMS += lat[entry(i)]
	}
	r.set("ops_per_s", passUnits/passMS*1e3, "1/s")
	r.Samples["ops_per_s"] = len(ops)
	r.Params["passes"] = float64(len(ops)) / float64(passLen)
	r.Params["ops"] = len(ops)
	r.Params["ops_per_pass"] = passLen
	r.Params["work_units"] = total
}

// Provenance describes where and how a result file was produced.
type Provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Created    string `json:"created"`
}

func provenance() Provenance {
	return Provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Created:    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the measured source tree; checkouts without git
// metadata record "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// File is a result file: provenance plus every run it holds.
type File struct {
	Schema     string     `json:"schema"`
	Provenance Provenance `json:"provenance"`
	Runs       []Run      `json:"runs"`
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// appendRuns adds runs to the result file at path, creating it with this
// process's provenance when it does not exist yet.
func appendRuns(path string, runs []Run) error {
	f, err := readFile(path)
	if os.IsNotExist(err) {
		f, err = &File{Schema: schema, Provenance: provenance()}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the closest ranks of an
// ascending sample.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the three cut points of an ascending sample by the
// same rule as Python's statistics.quantiles(data, n=4) (the "exclusive"
// method), so the spreads -compare reports match that reference.
func quartiles(s []float64) (q1, q2, q3 float64) {
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
