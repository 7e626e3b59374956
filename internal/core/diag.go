package core

import (
	"fmt"
	"sort"
	"strings"

	"parcoach/internal/source"
)

// DiagKind classifies the warnings the compile-time verification emits,
// mirroring the error types the paper reports to the programmer
// ("collective mismatch, concurrent collective calls, ...").
type DiagKind int

// Diagnostic kinds.
const (
	// DiagMultithreadedCollective: phase 1 — a collective whose parallelism
	// word is not in L, i.e. it may execute on several threads of one
	// process at once.
	DiagMultithreadedCollective DiagKind = iota
	// DiagConcurrentCollectives: phase 2 — two collectives in concurrent
	// monothreaded regions (same prefix, different single regions) may
	// execute simultaneously.
	DiagConcurrentCollectives
	// DiagCollectiveMismatch: phase 3 (PARCOACH Algorithm 1) — a
	// control-flow divergence point on which the execution of a collective
	// depends; processes taking different sides desynchronize.
	DiagCollectiveMismatch
	// DiagAmbiguousWord: the parallelism word of a node differs between
	// incoming paths (non-conforming barrier placement); the analysis
	// proceeds conservatively.
	DiagAmbiguousWord
	// DiagThreadLevel: informational — the minimum MPI thread support
	// level the program requires given where its collectives sit.
	DiagThreadLevel
)

var diagNames = map[DiagKind]string{
	DiagMultithreadedCollective: "multithreaded-collective",
	DiagConcurrentCollectives:   "concurrent-collectives",
	DiagCollectiveMismatch:      "collective-mismatch",
	DiagAmbiguousWord:           "ambiguous-parallelism-word",
	DiagThreadLevel:             "thread-level",
}

func (k DiagKind) String() string {
	if s, ok := diagNames[k]; ok {
		return s
	}
	return fmt.Sprintf("diag(%d)", int(k))
}

// IsError reports whether the kind denotes a potential correctness problem
// (as opposed to informational output).
func (k DiagKind) IsError() bool { return k != DiagThreadLevel }

// Diagnostic is one located warning with the collective names and source
// lines involved, as the paper requires.
type Diagnostic struct {
	Kind       DiagKind
	Pos        source.Pos
	Func       string
	Collective string // MPI_* name, or "call:<fn>" for summarized calls
	Message    string
	// Related lists the positions of the other constructs involved
	// (e.g. both collectives of a concurrent pair, or the collective a
	// divergence warning refers to).
	Related []source.Pos
}

// String renders "pos: kind: message [related: ...]".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s: %s", d.Pos, d.Kind, d.Message)
	if len(d.Related) > 0 {
		parts := make([]string, len(d.Related))
		for i, p := range d.Related {
			parts[i] = p.String()
		}
		fmt.Fprintf(&b, " (see %s)", strings.Join(parts, ", "))
	}
	return b.String()
}

// SortDiagnostics orders diagnostics by file, line, column, then kind,
// function, collective and message. The sort is stable and the ordering
// total over distinct diagnostics, so the output is canonical.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line || a.Pos.Col != b.Pos.Col {
			return a.Pos.Before(b.Pos)
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Collective != b.Collective {
			return a.Collective < b.Collective
		}
		return a.Message < b.Message
	})
}

// CountByKind tallies diagnostics per kind; the experiment harness uses it
// to reproduce the per-benchmark warning inventory.
func CountByKind(diags []Diagnostic) map[DiagKind]int {
	out := make(map[DiagKind]int)
	for _, d := range diags {
		out[d.Kind]++
	}
	return out
}
