package main

import (
	"path/filepath"
	"testing"
)

func smokeRun(t *testing.T, workload string, trace bool) *Run {
	t.Helper()
	r, err := runWorkload(config{workload: workload, seed: 1, seconds: 0.1, smoke: true, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.json")})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// checkEmitted requires the run's metrics to be exactly the defined
// ones, each with its defined unit.
func checkEmitted(t *testing.T, r *Run, want []SpecMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", r.Workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, want %q", r.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d defined", r.Workload, len(r.Metrics), len(want))
	}
}

// TestSmoke runs every workload briefly on reduced inputs, and one
// traced run, and checks them against BENCHMARK.json: every defined
// metric is emitted with its unit and failed_frac is 0.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		r := smokeRun(t, w, false)
		checkEmitted(t, r, spec.EndToEnd)
		if ff, ok := r.Extra["failed_frac"]; !ok || ff.Value != 0 || !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: failed_frac %v: %d of %d operations failed: %v", w, ff.Value, r.Failed, r.Attempted, r.Errors)
		}
	}
	r := smokeRun(t, "compile", true)
	checkEmitted(t, r, spec.PerLayer)
	if r.Failed != 0 {
		t.Errorf("traced run: %d of %d checks failed: %v", r.Failed, r.Attempted, r.Errors)
	}
}

// TestWrongVerdictFails plants a wrong expected verdict and requires the
// run to count the operations it judges as failed: the oracle can fail.
func TestWrongVerdictFails(t *testing.T) {
	saved := fig1Kinds
	fig1Kinds = []string{"concurrent-collectives"}
	defer func() { fig1Kinds = saved }()
	r := smokeRun(t, "compile", false)
	if r.Failed == 0 || r.Correct {
		t.Fatalf("a wrong Figure 1 verdict went unnoticed: %d of %d failed", r.Failed, r.Attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := SpecMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(1.0), verdictWithin},
		{shift(1.05), verdictWithin},
		{shift(1.2), verdictWorse},
		{shift(0.8), verdictBetter},
		{noisy, verdictUnresolved},
	} {
		if got, _ := judge(lower, base, c.b); got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	setup := SpecMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	if got, _ := judge(setup, noisy, noisy); got != verdictWithin {
		t.Errorf("setup_s is judged by its median alone: %s, want %s", got, verdictWithin)
	}
	higher := SpecMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if got, _ := judge(higher, base, shift(0.8)); got != verdictWorse {
		t.Errorf("higher-is-better drop: %s, want %s", got, verdictWorse)
	}
	clean, oneFailed := make([]float64, 10), make([]float64, 10)
	oneFailed[3] = 0.001
	if got, _ := judge(failedFrac, clean, oneFailed); got != verdictWorse {
		t.Errorf("failed_frac growing from 0: %s, want %s", got, verdictWorse)
	}
	if got, _ := judge(failedFrac, clean, clean); got != verdictWithin {
		t.Errorf("failed_frac 0 on both sides: %s, want %s", got, verdictWithin)
	}
}
