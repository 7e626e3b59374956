package campaign

import (
	"sync"

	"parcoach/internal/mhgen"
	"parcoach/internal/monitor"
	"parcoach/internal/workload"
)

// runState is one worker's reusable run machinery: the recording
// scheduler and the vector-clock analysis.
type runState struct {
	tr *tracer
	an monitor.Analysis
}

var tracerPool = sync.Pool{New: func() any { return &runState{tr: newTracer()} }}

// spliceCap bounds the spliced children one run may queue for the next
// round: splices re-walk a known prefix, so their novel-key rate is
// structurally below a fresh schedule's — a small cap keeps them an
// exploration garnish, not a budget sink.
const spliceCap = 2

// seedDisplacement moves a mutant's generation seed far outside any
// plausible sweep range, so displaced-seed mutants never collide with
// corpus seeds.
const seedDisplacement = 0x9e3779b9

// neighborhood enumerates the mhgen seed neighborhood of a generation
// config: the same seed with the bug class rotated, with the size
// flipped, and a displaced seed with the same class — the three
// cheapest moves that keep a productive program's shape while changing
// which behavior is planted where.
func neighborhood(cfg mhgen.Config) []mhgen.Config {
	rot := cfg
	all := workload.AllBugs
	next := 0
	for i, b := range all {
		if b == cfg.Bug {
			next = (i + 1) % len(all)
			break
		}
	}
	rot.Bug = all[next]

	flip := cfg
	if flip.Size == mhgen.SizeSmall {
		flip.Size = mhgen.SizeMedium
	} else {
		flip.Size = mhgen.SizeSmall
	}

	disp := cfg
	disp.Seed += seedDisplacement

	return []mhgen.Config{rot, flip, disp}
}

// mutate admits at most one novel neighbor of a yielding entry,
// rotating through the neighborhood across rounds. Runs in the serial
// merge; admission order (and hence entry ids) is deterministic.
func (c *state) mutate(e *entry) {
	if c.opts.Uniform || len(c.entries) >= corpusPerSeed*len(c.opts.Seeds) {
		return
	}
	for _, cfg := range neighborhood(e.cfg) {
		gp := mhgen.Generate(cfg)
		h := fnvString(gp.Source)
		if c.seen[h] {
			continue
		}
		comp, err := c.compile(gp)
		if err != nil {
			// A generator neighbor that fails to compile is a generator
			// bug; skip it rather than abort a long campaign.
			c.seen[h] = true
			continue
		}
		c.admit(gp, cfg, "mutant", comp)
		c.mutants++
		return
	}
}
