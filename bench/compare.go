package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Spec is the part of BENCHMARK.json that -compare applies.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric's definition.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile is the benchmark definition, at the root of the checkout
// where the benchmark runs.
const specFile = "BENCHMARK.json"

func readSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "WORSE"
	verdictBetter     = "better"
	verdictUnresolved = "UNRESOLVED"
)

// judge compares B's runs of one metric against A's. The change is
// worse when its median is worse than A's by more than the bound. When
// either side's quartile spread, as a share of its median, is wider than
// the bound, the pair is unresolved unless every run of B beats every
// run of A; set-up time is exempt from that rule, because a few short
// set-ups per run spread wider than the runs they prepare. B is better
// when its median beats A's by more than A's own quartile spread. A
// lower-is-better metric with bound 0, failed_frac, may not grow at all:
// B is worse when its worst run is worse than A's worst run, and
// worseBy is then a difference, not a share.
func judge(m SpecMetric, a, b []float64) (verdict string, worseBy float64) {
	sa, sb := sorted(a), sorted(b)
	if m.Bound == 0 {
		worst := sb[len(sb)-1] - sa[len(sa)-1]
		switch {
		case worst > 0:
			return verdictWorse, worst
		case worst < 0:
			return verdictBetter, worst
		}
		return verdictWithin, 0
	}
	a1, am, a3 := quartiles(sa)
	b1, bm, b3 := quartiles(sb)
	sign := 1.0 // +1: lower is better
	if m.Better == "higher" {
		sign = -1
	}
	worseBy = sign * (bm - am) / am
	allBetter := sb[len(sb)-1] < sa[0]
	if m.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case m.Name != "setup_s" && ((a3-a1)/am > m.Bound || (b3-b1)/bm > m.Bound):
		if allBetter {
			return verdictBetter, worseBy
		}
		return verdictUnresolved, worseBy
	case worseBy > m.Bound:
		return verdictWorse, worseBy
	case -worseBy*am > a3-a1:
		return verdictBetter, worseBy
	}
	return verdictWithin, worseBy
}

// failedFrac is the share of failed operations, which may not grow at
// all. It is not in BENCHMARK.json, whose metrics must never read 0.
var failedFrac = SpecMetric{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0}

// runCompare prints, for every workload and end-to-end metric and for
// failed_frac, both sides' medians and quartiles and the verdict, then
// checks that every count of the traced runs matches exactly between
// runs of the same workload and seed. It returns the exit status: 0 when
// every pair is within bound or better, every count matches and no run
// failed.
func runCompare(w io.Writer, specPath, pathA, pathB string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fa, err := readFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fb, err := readFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, f := range []struct {
		name, path string
		file       *File
	}{{"A", pathA, fa}, {"B", pathB, fb}} {
		p := f.file.Provenance
		fmt.Fprintf(w, "%s: %s commit %s, %s, nproc %d, GOMAXPROCS %d, %d runs\n",
			f.name, f.path, p.Commit, p.GoVersion, p.NProc, p.GOMAXPROCS, len(f.file.Runs))
		var speed []float64
		for _, r := range f.file.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "  %s: %s seed %d failed %d of %d operations\n", f.name, r.Workload, r.Seed, r.Failed, r.Attempted)
				status = 1
			}
			if m, ok := r.Extra["machine.alloc_us"]; ok {
				speed = append(speed, m.Value)
			}
		}
		if len(speed) > 0 {
			fmt.Fprintf(w, "  machine speed during %s: %s us per allocation round\n", f.name, quart(speed))
		}
	}

	values := func(f *File, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				if m, ok := r.Metrics[metric]; ok {
					out = append(out, m.Value)
				} else if m, ok := r.Extra[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	fmt.Fprintf(w, "\n%-10s %-12s %5s %26s %26s %8s  %s\n", "workload", "metric", "bound",
		"A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloadNames() {
		for _, m := range append(spec.EndToEnd, failedFrac) {
			a, b := values(fa, wl, m.Name), values(fb, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				if len(a)+len(b) > 0 {
					fmt.Fprintf(w, "%-10s %-12s missing on one side (%d vs %d runs)\n", wl, m.Name, len(a), len(b))
					status = 1
				}
				continue
			}
			verdict, worseBy := judge(m, a, b)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				status = 1
			}
			fmt.Fprintf(w, "%-10s %-12s %4.0f%% %26s %26s %+7.1f%%  %s\n", wl, m.Name, 100*m.Bound,
				quart(a), quart(b), 100*worseBy, verdict)
		}
	}

	mismatches := compareCounts(w, spec, fa, fb)
	if mismatches > 0 {
		status = 1
	}
	fmt.Fprintf(w, "\ncounts: %d mismatches\n", mismatches)
	return status
}

func quart(xs []float64) string {
	q1, q2, q3 := quartiles(sorted(xs))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// compareCounts checks every per-layer metric with unit "count" of the
// traced runs: all runs of one workload and seed, in either file, must
// report the same value.
func compareCounts(w io.Writer, spec *Spec, fa, fb *File) int {
	type key struct {
		workload string
		seed     uint64
		metric   string
	}
	seen := map[key]float64{}
	mismatches := 0
	var lines []string
	for _, f := range []*File{fa, fb} {
		for _, r := range f.Runs {
			if !r.Trace {
				continue
			}
			for _, m := range spec.PerLayer {
				if m.Unit != "count" {
					continue
				}
				v, ok := r.Metrics[m.Name]
				if !ok {
					continue
				}
				k := key{r.Workload, r.Seed, m.Name}
				if prev, ok := seen[k]; ok && prev != v.Value {
					mismatches++
					lines = append(lines, fmt.Sprintf("  %s seed %d %s: %v vs %v", k.workload, k.seed, k.metric, prev, v.Value))
				} else if !ok {
					seen[k] = v.Value
				}
			}
		}
	}
	sort.Strings(lines)
	if len(lines) > 0 {
		fmt.Fprintf(w, "\ncount mismatches:\n%s\n", strings.Join(lines, "\n"))
	}
	return mismatches
}
