package explore

import (
	"math"

	"parcoach/internal/ast"
	"parcoach/internal/interp"
	"parcoach/internal/sched"
)

// The test-only reference the one DFS is checked against: plain
// exhaustive enumeration without partial-order reduction. Every run's
// untaken alternatives become new prefixes, deduplicated only by the
// positional state signature (sched.Choice.Sig) the alternative is
// taken from. Prefixes are kept on one LIFO stack with each run's
// children pushed in increasing branch depth, so the deepest child runs
// next — the order the DFS frontier runs in at a round width of one.

// sigRecorder is a sched.Recorder that also keeps the positional state
// signature of every branch point it passes.
type sigRecorder struct {
	sched.Recorder
	sigs []uint64
}

func (s *sigRecorder) Next(c sched.Choice) sched.ThreadID {
	if len(c.Enabled) > 1 {
		s.sigs = append(s.sigs, c.Sig())
	}
	return s.Recorder.Next(c)
}

// oracleReport is a plain-DFS report plus the number of alternatives
// its state signatures pruned.
type oracleReport struct {
	*Report
	pruned int
}

// plainDFS enumerates prog's schedule space sequentially within
// opts.Schedules runs and reduces the runs exactly like Explore does.
func plainDFS(prog *ast.Program, opts Options) oracleReport {
	opts = opts.normalized()
	sess := interp.NewSession(prog, opts.RunOptions())
	type choice struct {
		sig uint64
		alt sched.ThreadID
	}
	seen := make(map[choice]bool)
	out := oracleReport{Report: &Report{Strategy: StrategyDFS}}
	var runs []run
	diverged := 0
	stack := [][]sched.ThreadID{nil}
	for len(stack) > 0 && len(runs) < opts.Schedules {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rec := &sigRecorder{Recorder: sched.Recorder{Keep: math.MaxInt}}
		rec.Reset(prefix)
		res := sess.Run(rec)
		trace := rec.Trace()
		runs = append(runs, run{outcome: res.Outcome(), err: res.Err, trace: trace, diverged: rec.Diverged()})
		if rec.Diverged() {
			diverged++
			continue
		}
		for bi := len(prefix); bi < len(rec.Branches); bi++ {
			b := rec.Branches[bi]
			for _, alt := range b.Enabled {
				if alt == b.Chosen {
					continue
				}
				k := choice{rec.sigs[bi], alt}
				if seen[k] {
					out.pruned++
					continue
				}
				seen[k] = true
				stack = append(stack, childPrefix(trace, bi, alt))
			}
		}
	}
	mergeDFS(out.Report, runs, len(stack) > 0, diverged)
	return out
}
