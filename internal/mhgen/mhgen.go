// Package mhgen generates random MiniHybrid programs from a seed — the
// systematic test surface behind the differential static/dynamic
// validation harness (internal/mhgen/diff, fuzz_test.go at the module
// root).
//
// The generator composes the language's full feature space — nested
// if/for/while control flow around collectives, call chains and mutual
// recursion (so summary computation walks non-trivial SCCs), parallel /
// single / master / critical / pfor / sections regions, and mixes of
// barrier, bcast, reduce, allreduce, gather/scatter and friends — in two
// flavors:
//
//   - correct-by-construction programs: every process executes the same
//     collective sequence, collectives inside parallel regions sit in
//     non-nowait single constructs, and every condition on a path to a
//     collective or team-synchronizing construct is built only from
//     dynamically process- and team-uniform values;
//   - programs with exactly one bug from the paper's detection matrix
//     (workload.Bug) planted at a known, labeled source line, using the
//     shared bug-planting vocabulary of internal/workload.
//
// Generation is deterministic: the same Config yields byte-identical
// source. The correctness argument for clean programs is tracked per
// variable (a "uniform" flag mirroring dynamic process/team agreement)
// and is exercised empirically by the differential harness, which fails
// on any clean program that trips a runtime check or the deadlock
// oracle.
package mhgen

import (
	"fmt"
	"math/rand"
	"strings"

	"parcoach/internal/parser"
	"parcoach/internal/workload"
)

// Size selects how much program the generator emits.
type Size int

// Program sizes.
const (
	// SizeSmall: a handful of functions and main segments (unit-test speed).
	SizeSmall Size = iota
	// SizeMedium: more helpers, deeper nesting, longer main.
	SizeMedium
)

func (s Size) String() string {
	if s == SizeMedium {
		return "medium"
	}
	return "small"
}

// Config parameterizes one generated program.
type Config struct {
	// Seed drives every random choice; equal seeds give byte-identical
	// programs.
	Seed uint64 `json:"seed"`
	// Bug is the planted error class (workload.BugNone for a
	// correct-by-construction program).
	Bug workload.Bug `json:"bug"`
	// Size scales the program.
	Size Size `json:"size"`
}

// Program is one generated MiniHybrid program with its ground truth.
type Program struct {
	// Name identifies the program ("mhgen-s42-early-return").
	Name string
	// Seed and Bug echo the config; Bug is the ground-truth label the
	// differential harness checks the tool's verdicts against.
	Seed uint64
	Bug  workload.Bug
	Size Size
	// Source is the program text.
	Source string
	// BugLine is the 1-based line of the "// seeded bug:" marker (0 for
	// clean programs).
	BugLine int
	// Procs and Threads are the run parameters under which the planted
	// bug (if any) deterministically manifests: the intra-process race
	// classes run on one process, everything else on two.
	Procs   int
	Threads int
}

// FromSeed derives a full Config from a bare seed — bug class and size
// cycle with the seed so any contiguous seed range covers every planted
// bug class plus clean programs at both sizes — and generates the
// program. Seeds ≡ 0 (mod 10) are clean.
func FromSeed(seed uint64) *Program {
	cfg := Config{Seed: seed, Size: SizeSmall}
	if n := seed % 10; n != 0 {
		cfg.Bug = workload.AllBugs[n-1]
	}
	if seed%3 == 0 {
		cfg.Size = SizeMedium
	}
	return Generate(cfg)
}

// ShardSeeds partitions the seed interval [start, start+n) round-robin
// into shards and returns shard's slice (every shards-th seed starting
// at start+shard), in increasing order. Round-robin rather than
// contiguous blocks because FromSeed cycles the bug class with the
// seed: with a shard count coprime to that 10-class cycle every shard
// of a matrix sweep covers every bug class (and any shard count still
// spreads classes far more evenly than contiguous blocks would). The
// union of all shards is exactly the unsharded range and
// shards are pairwise disjoint. Panics on an invalid (shards, shard)
// pair — a CLI misconfiguration, not a recoverable state.
func ShardSeeds(start, n uint64, shards, shard int) []uint64 {
	if shards < 1 || shard < 0 || shard >= shards {
		panic(fmt.Sprintf("mhgen.ShardSeeds: invalid shard %d of %d", shard, shards))
	}
	var out []uint64
	for s := start + uint64(shard); s < start+n; s += uint64(shards) {
		out = append(out, s)
	}
	return out
}

// Generate emits the program for cfg. The result always parses and
// passes semantic checking (validated here with MustParse, so a
// generator regression fails loudly at the source).
func Generate(cfg Config) *Program {
	g := newGen(cfg)
	g.program()
	src := g.e.String()
	p := &Program{
		Name:    fmt.Sprintf("mhgen-s%d-%s", cfg.Seed, cfg.Bug),
		Seed:    cfg.Seed,
		Bug:     cfg.Bug,
		Size:    cfg.Size,
		Source:  src,
		Procs:   RecommendedProcs(cfg.Bug),
		Threads: 2,
	}
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "// seeded bug:") {
			p.BugLine = i + 1
			break
		}
	}
	parser.MustParse(p.Name+".mh", src)
	return p
}

// RecommendedProcs returns the world size under which a planted bug
// class manifests deterministically: the intra-process concurrency races
// run on a single process (the collective completes trivially, so only
// the thread-level race remains and the round-robin single election
// exposes it); the inter-process divergence classes need two.
func RecommendedProcs(b workload.Bug) int {
	switch b {
	case workload.BugConcurrentSingles, workload.BugSectionsCollectives:
		return 1
	}
	return 2
}

// rng wraps math/rand with the small helpers the generator uses. The
// rand.NewSource sequence is covered by the Go 1 compatibility promise,
// so seeds reproduce across Go releases and platforms.
type rng struct{ r *rand.Rand }

func newRng(seed uint64) *rng { return &rng{r: rand.New(rand.NewSource(int64(seed)))} }

// n returns a value in [0, max).
func (r *rng) n(max int) int { return r.r.Intn(max) }

// rangeIn returns a value in [lo, hi] inclusive.
func (r *rng) rangeIn(lo, hi int) int { return lo + r.r.Intn(hi-lo+1) }

// chance is true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.r.Intn(100) < pct }

// pick returns a random element of list.
func pick[T any](r *rng, list []T) T { return list[r.n(len(list))] }
