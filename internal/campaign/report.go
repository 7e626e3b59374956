package campaign

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"parcoach/internal/interp"
	"parcoach/internal/mhgen"
	"parcoach/internal/sched"
	"parcoach/internal/verifier"
)

// Point is one round of the coverage-vs-budget trajectory.
type Point struct {
	Round    int `json:"round"`
	Runs     int `json:"runs"`     // cumulative schedules executed
	Coverage int `json:"coverage"` // distinct coverage keys so far
	Bugs     int `json:"bugs"`     // corpus entries with their planted bug caught
}

// CorpusEntry is one committed corpus member.
type CorpusEntry struct {
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Bug     string `json:"bug"`
	Size    string `json:"size"`
	Origin  string `json:"origin"` // "seed" or "mutant"
	Procs   int    `json:"procs"`
	Threads int    `json:"threads"`
	Runs    int    `json:"runs"`
	Yield   int    `json:"yield"` // total novel coverage keys contributed
	Retired bool   `json:"retired,omitempty"`
	// FailToken is the replay token of the first schedule a planted
	// check or the value oracle stopped ("" if never detected).
	FailToken string `json:"fail_token,omitempty"`
	// Source is the program text — for mutants the (possibly reduced)
	// reproducer; seed entries are addressable by Seed and omit it.
	Source string `json:"source,omitempty"`
}

// Report is the campaign's result.
type Report struct {
	Seed    uint64 `json:"seed"`
	Budget  int    `json:"budget"`
	Runs    int    `json:"runs"`
	Uniform bool   `json:"uniform"`

	Coverage    int `json:"coverage"`
	SigKeys     int `json:"sig_keys"`
	VerdictKeys int `json:"verdict_keys"`
	EdgeKeys    int `json:"edge_keys"`
	StaticKeys  int `json:"static_keys"`

	// Bugs lists the caught planted bugs of the seed corpus (static or
	// dynamic), sorted — the set compared between campaign and linear
	// sweep. MutantBugs lists catches in mutated programs.
	Bugs       []string `json:"bugs"`
	MutantBugs []string `json:"mutant_bugs,omitempty"`

	Mutants int `json:"mutants"`
	Retired int `json:"retired"`

	// Canceled marks a campaign stopped by Options.Ctx: the report
	// reduces only the rounds that completed before the cancellation.
	Canceled bool `json:"canceled,omitempty"`
	// Quarantined counts runs whose panic was caught at the job boundary
	// (OutcomeInternalError); their entries were retired.
	Quarantined int `json:"quarantined,omitempty"`

	Trajectory []Point       `json:"trajectory"`
	Corpus     []CorpusEntry `json:"corpus"`
}

// report commits the corpus (reducing mutant reproducers unless
// disabled) and assembles the final report.
func (c *state) report() *Report {
	r := &Report{
		Seed:        c.opts.Seed,
		Budget:      c.opts.Budget,
		Runs:        c.Runs,
		Uniform:     c.opts.Uniform,
		Coverage:    len(c.cover),
		SigKeys:     c.SigKeys,
		VerdictKeys: c.VerdictKeys,
		EdgeKeys:    c.EdgeKeys,
		StaticKeys:  c.StaticKeys,
		Mutants:     c.Mutants,
		Canceled:    c.canceled,
		Quarantined: c.Quarantined,
		Trajectory:  c.Trajectory,
	}
	for _, e := range c.entries {
		if e.Retired {
			r.Retired++
		}
		caught := e.gp.Bug.String() != "none" && (e.StaticCaught || e.Detected)
		if caught {
			if e.Origin == "seed" {
				r.Bugs = append(r.Bugs, e.bugLabel())
			} else {
				r.MutantBugs = append(r.MutantBugs, e.bugLabel())
			}
		}
		ce := CorpusEntry{
			Name:      e.gp.Name,
			Seed:      e.gp.Seed,
			Bug:       e.gp.Bug.String(),
			Size:      e.gp.Size.String(),
			Origin:    e.Origin,
			Procs:     e.gp.Procs,
			Threads:   e.gp.Threads,
			Runs:      e.Runs,
			Yield:     e.TotalYield,
			Retired:   e.Retired,
			FailToken: e.FailToken,
		}
		if e.Origin != "seed" {
			src := e.gp.Source
			if e.Detected && !c.opts.NoReduce {
				src = c.reduceMutant(e)
			}
			ce.Source = src
		}
		r.Corpus = append(r.Corpus, ce)
	}
	sort.Strings(r.Bugs)
	sort.Strings(r.MutantBugs)
	return r
}

// reduceMutant minimizes a detecting mutant before corpus commit: the
// smallest program that still compiles and whose recorded failing
// schedule still stops it with the same outcome class, replayed
// without divergence (mhgen.Reduce memoizes the keep predicate, so each
// candidate compiles once).
func (c *state) reduceMutant(e *entry) string {
	want := c.replayOutcome(e.gp, e.gp.Source, e.FailToken)
	if want == interp.OutcomeClean {
		return e.gp.Source // token did not reproduce; keep the original
	}
	return mhgen.Reduce(e.gp.Source, func(src string) bool {
		return c.replayOutcome(e.gp, src, e.FailToken) == want
	})
}

// replayOutcome compiles a source variant of gp and replays the exact
// schedule token, returning the outcome class (OutcomeClean for any
// failure to compile, parse the token, or replay without divergence).
func (c *state) replayOutcome(gp *mhgen.Program, src, token string) interp.Outcome {
	probe := *gp
	probe.Source = src
	comp, err := c.compile(&probe)
	if err != nil {
		return interp.OutcomeClean
	}
	s, err := sched.Parse(token)
	if err != nil {
		return interp.OutcomeClean
	}
	res := comp.Session.Run(s)
	if res.Diverged {
		return interp.OutcomeClean
	}
	out := res.Outcome()
	if out != interp.OutcomeCheckAbort && out != interp.OutcomeValueError {
		return interp.OutcomeClean
	}
	return out
}

// valueKindOf extracts the value-oracle check kind from a run error.
func valueKindOf(err error) string {
	var ve *verifier.ValueError
	if errors.As(err, &ve) {
		return ve.Check.String()
	}
	return ""
}

// Format renders the report as stable text — the byte-identity surface
// of the determinism contract (mutant sources are summarized by line
// count; the full text lives in the structured Corpus).
func (r *Report) Format() string {
	var b strings.Builder
	mode := "campaign"
	if r.Uniform {
		mode = "uniform"
	}
	fmt.Fprintf(&b, "%s seed=%d budget=%d runs=%d corpus=%d mutants=%d retired=%d\n",
		mode, r.Seed, r.Budget, r.Runs, len(r.Corpus), r.Mutants, r.Retired)
	fmt.Fprintf(&b, "coverage total=%d sig=%d verdict=%d edge=%d static=%d\n",
		r.Coverage, r.SigKeys, r.VerdictKeys, r.EdgeKeys, r.StaticKeys)
	// Robustness line only when something robustness-worthy happened, so
	// clean runs keep their exact historical rendering (the byte-identity
	// surface of the determinism and checkpoint/resume contracts).
	if r.Canceled || r.Quarantined > 0 {
		fmt.Fprintf(&b, "robustness canceled=%t quarantined=%d\n", r.Canceled, r.Quarantined)
	}
	fmt.Fprintf(&b, "bugs caught=%d: %s\n", len(r.Bugs), strings.Join(r.Bugs, " "))
	if len(r.MutantBugs) > 0 {
		fmt.Fprintf(&b, "mutant bugs caught=%d: %s\n", len(r.MutantBugs), strings.Join(r.MutantBugs, " "))
	}
	b.WriteString("trajectory:\n")
	for _, p := range r.Trajectory {
		fmt.Fprintf(&b, "  round %-3d runs=%-6d coverage=%-6d bugs=%d\n", p.Round, p.Runs, p.Coverage, p.Bugs)
	}
	b.WriteString("corpus:\n")
	for _, e := range r.Corpus {
		fmt.Fprintf(&b, "  %-34s %-7s runs=%-4d yield=%-5d", e.Name, e.Origin, e.Runs, e.Yield)
		if e.Retired {
			b.WriteString(" retired")
		}
		if e.FailToken != "" {
			fmt.Fprintf(&b, " fail=%s", truncToken(e.FailToken))
		}
		if e.Source != "" {
			fmt.Fprintf(&b, " src=%d lines", strings.Count(e.Source, "\n")+1)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// truncToken shortens very long replay tokens for the rendered report
// (the full token stays in the structured corpus entry).
func truncToken(tok string) string {
	const max = 48
	if len(tok) <= max {
		return tok
	}
	return tok[:max] + "..."
}
