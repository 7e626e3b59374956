// Campaign checkpoint/resume.
//
// A checkpoint is everything the round loop needs to continue exactly
// where it stopped, written from the campaign's own records: the
// coverage set, the dedup set of seen source hashes (including hashes
// of neighbors that FAILED to compile — omitting those would change
// future mutation admission), every entry's entryState and the tally of
// counters and trajectory. Programs themselves are NOT serialized:
// every corpus entry — seed or mutant — is a pure function of its
// mhgen.Config, so resume regenerates and recompiles them, and
// checkpoints stay a few kilobytes.
//
// The byte-identity contract: Run(opts with Resume) after Run(opts with
// HaltAfterRound=r) produces a report byte-identical to Run(opts)
// uninterrupted, at any worker count. It holds because every schedule
// seed derives from (campaign seed, entry id, schedule index) — all
// checkpointed — and runs are pure functions of (program, seed,
// prefix).
package campaign

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"parcoach/internal/mhgen"
	"parcoach/internal/pipeline"
)

// checkpointVersion guards the serialization format.
const checkpointVersion = 1

// checkpoint is the serialized campaign state after Round completed
// rounds: the campaign's own records, written as they are.
type checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	Round       int    `json:"round"` // completed rounds; resume continues here
	tally
	Cover   []uint64     `json:"key_log"` // the coverage set, sorted
	Seen    []uint64     `json:"seen"`    // the dedup set, sorted
	Entries []entryState `json:"entries"`
}

// fingerprint hashes every option that shapes the campaign's
// deterministic trajectory. Resuming under different options would
// silently diverge from the uninterrupted run; the fingerprint turns
// that into a loud error. Worker count, run timeout and checkpoint/halt
// settings are deliberately excluded — they must not affect the
// trajectory. The allocation constants are hashed where their options
// used to be, so checkpoints written while they were settable resume.
func fingerprint(o *Options) uint64 {
	h := fnvString("parcoach-campaign-checkpoint-v1")
	h = mix(h, o.Seed)
	h = mix(h, uint64(o.Budget))
	h = mix(h, boolBit(o.Uniform)<<0|boolBit(o.NoReduce)<<3)
	h = mix(h, initialAlloc)
	h = mix(h, maxPerRound)
	h = mix(h, dryRounds)
	h = mix(h, runsPerSeed)
	h = mix(h, uint64(corpusPerSeed*len(o.Seeds)))
	h = mix(h, uint64(len(o.Seeds)))
	for _, s := range o.Seeds {
		h = mix(h, s)
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// writeCheckpoint atomically replaces the checkpoint file (write to a
// temp file in the same directory, then rename) so a kill mid-write
// leaves the previous checkpoint intact. Both sets are written sorted:
// resume rebuilds them whatever their order, and a stable file keeps
// checkpoints diffable.
func (c *state) writeCheckpoint(completedRounds int) error {
	ck := checkpoint{
		Version:     checkpointVersion,
		Fingerprint: fingerprint(&c.opts),
		Round:       completedRounds,
		tally:       c.tally,
		Cover:       slices.Sorted(maps.Keys(c.cover)),
		Seen:        slices.Sorted(maps.Keys(c.seen)),
	}
	for _, e := range c.entries {
		ck.Entries = append(ck.Entries, e.entryState)
	}
	data, err := json.Marshal(&ck)
	if err != nil {
		return fmt.Errorf("campaign: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(c.opts.Checkpoint)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.opts.Checkpoint); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: commit checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads and validates a checkpoint file.
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", path, ck.Version, checkpointVersion)
	}
	return &ck, nil
}

// restore rebuilds the campaign state from a checkpoint: regenerate
// every corpus program from its config and recompile it, give each
// entry its saved state, and restore the coverage set, the seen set and
// the tally. Any order of the two sets loads, so checkpoints that logged
// the coverage keys in admission order resume too.
func (c *state) restore(ck *checkpoint) error {
	if got, want := ck.Fingerprint, fingerprint(&c.opts); got != want {
		return fmt.Errorf("campaign: checkpoint was written under different options (fingerprint %x, want %x)", got, want)
	}
	if len(ck.Entries) < len(c.opts.Seeds) {
		return fmt.Errorf("campaign: checkpoint has %d entries for %d seeds", len(ck.Entries), len(c.opts.Seeds))
	}

	gps := make([]*mhgen.Program, len(ck.Entries))
	comps := make([]*Compiled, len(ck.Entries))
	errs := make([]error, len(ck.Entries))
	for i, snap := range ck.Entries {
		gps[i] = mhgen.Generate(snap.Config)
	}
	pipeline.Map(c.opts.Workers, len(gps), func(i int) {
		comps[i], errs[i] = c.compile(gps[i])
	})
	for i, snap := range ck.Entries {
		if errs[i] != nil {
			return fmt.Errorf("campaign: recompile corpus entry %d on resume: %w", i, errs[i])
		}
		c.entries = append(c.entries, &entry{
			id:         i,
			gp:         gps[i],
			hash:       fnvString(gps[i].Source),
			comp:       comps[i],
			entryState: snap,
		})
	}
	for _, k := range ck.Cover {
		c.cover[k] = struct{}{}
	}
	for _, h := range ck.Seen {
		c.seen[h] = true
	}
	c.tally = ck.tally
	return nil
}
