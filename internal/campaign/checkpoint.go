// Campaign checkpoint/resume.
//
// A checkpoint is everything the round loop needs to continue exactly
// where it stopped: the coverage key log (the set is rebuilt by
// replaying the log, which keeps admission order), the dedup set of seen
// source hashes (including hashes of neighbors that FAILED to compile —
// omitting those would change future mutation admission), per-entry
// frontier bookkeeping, and the global counters/trajectory. Programs
// themselves are NOT serialized: every corpus entry — seed or mutant —
// is a pure function of its mhgen.Config, so resume regenerates and
// recompiles them, and checkpoints stay a few kilobytes.
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
	"os"
	"path/filepath"
	"sort"

	"parcoach/internal/mhgen"
	"parcoach/internal/sched"
	"parcoach/internal/workload"
)

// checkpointVersion guards the serialization format.
const checkpointVersion = 1

// entrySnap is one corpus entry's resumable state. The program is
// regenerated from (Seed, Bug, Size); everything derived from the
// source (hash, compile, static kinds) is recomputed.
type entrySnap struct {
	Seed         uint64  `json:"seed"`
	Bug          int     `json:"bug"`
	Size         int     `json:"size"`
	Origin       string  `json:"origin"`
	StaticCaught bool    `json:"static_caught,omitempty"`
	Detected     bool    `json:"detected,omitempty"`
	FailToken    string  `json:"fail_token,omitempty"`
	Runs         int     `json:"runs"`
	NextSched    int     `json:"next_sched"`
	Yield        int     `json:"yield"`
	LastRuns     int     `json:"last_runs"`
	TotalYield   int     `json:"total_yield"`
	Dry          int     `json:"dry"`
	Retired      bool    `json:"retired,omitempty"`
	Splices      [][]int `json:"splices,omitempty"`
}

// checkpoint is the serialized campaign state after Round completed
// rounds.
type checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	Round       int    `json:"round"` // completed rounds; resume continues here

	Runs        int `json:"runs"`
	SigKeys     int `json:"sig_keys"`
	VerdictKeys int `json:"verdict_keys"`
	EdgeKeys    int `json:"edge_keys"`
	StaticKeys  int `json:"static_keys"`
	Mutants     int `json:"mutants"`
	Quarantined int `json:"quarantined,omitempty"`

	Trajectory []Point     `json:"trajectory"`
	KeyLog     []uint64    `json:"key_log"`
	Seen       []uint64    `json:"seen"`
	Entries    []entrySnap `json:"entries"`
}

// fingerprint hashes every option that shapes the campaign's
// deterministic trajectory. Resuming under different options would
// silently diverge from the uninterrupted run; the fingerprint turns
// that into a loud error. Pool width, run timeout and checkpoint/halt
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
// leaves the previous checkpoint intact.
func (c *state) writeCheckpoint(completedRounds int) error {
	ck := checkpoint{
		Version:     checkpointVersion,
		Fingerprint: fingerprint(&c.opts),
		Round:       completedRounds,
		Runs:        c.runs,
		SigKeys:     c.sigKeys,
		VerdictKeys: c.verdictKey,
		EdgeKeys:    c.edgeKeys,
		StaticKeys:  c.staticKeys,
		Mutants:     c.mutants,
		Quarantined: c.quarantined,
		Trajectory:  c.trajectory,
		KeyLog:      c.keyLog,
	}
	ck.Seen = make([]uint64, 0, len(c.seen))
	for h := range c.seen {
		ck.Seen = append(ck.Seen, h)
	}
	// Map order is random; sort for a stable file. (Resume semantics
	// don't need it — the set is order-free — but diffable checkpoints
	// make the smoke scripts' failures readable.)
	sort.Slice(ck.Seen, func(i, j int) bool { return ck.Seen[i] < ck.Seen[j] })
	for _, e := range c.entries {
		snap := entrySnap{
			Seed:         e.cfg.Seed,
			Bug:          int(e.cfg.Bug),
			Size:         int(e.cfg.Size),
			Origin:       e.origin,
			StaticCaught: e.staticCaught,
			Detected:     e.detected,
			FailToken:    e.failToken,
			Runs:         e.runs,
			NextSched:    e.nextSched,
			Yield:        e.yield,
			LastRuns:     e.lastRuns,
			TotalYield:   e.totalYield,
			Dry:          e.dry,
			Retired:      e.retired,
		}
		for _, p := range e.splices {
			sp := make([]int, len(p))
			for i, t := range p {
				sp[i] = int(t)
			}
			snap.Splices = append(snap.Splices, sp)
		}
		ck.Entries = append(ck.Entries, snap)
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
// every corpus program from its config, recompile on the pool, replay
// the coverage key log, and restore the frontier bookkeeping.
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
		cfg := mhgen.Config{Seed: snap.Seed, Bug: workload.Bug(snap.Bug), Size: mhgen.Size(snap.Size)}
		gps[i] = mhgen.Generate(cfg)
	}
	c.pool.Map(len(gps), func(i int) {
		comps[i], errs[i] = c.compile(gps[i])
	})
	for i := range ck.Entries {
		if errs[i] != nil {
			return fmt.Errorf("campaign: recompile corpus entry %d on resume: %w", i, errs[i])
		}
	}

	for i, snap := range ck.Entries {
		e := &entry{
			id:           i,
			gp:           gps[i],
			cfg:          mhgen.Config{Seed: snap.Seed, Bug: workload.Bug(snap.Bug), Size: mhgen.Size(snap.Size)},
			origin:       snap.Origin,
			hash:         fnvString(gps[i].Source),
			comp:         comps[i],
			staticCaught: snap.StaticCaught,
			detected:     snap.Detected,
			failToken:    snap.FailToken,
			runs:         snap.Runs,
			nextSched:    snap.NextSched,
			yield:        snap.Yield,
			lastRuns:     snap.LastRuns,
			totalYield:   snap.TotalYield,
			dry:          snap.Dry,
			retired:      snap.Retired,
		}
		for _, sp := range snap.Splices {
			p := make([]sched.ThreadID, len(sp))
			for j, t := range sp {
				p[j] = sched.ThreadID(t)
			}
			e.splices = append(e.splices, p)
		}
		c.entries = append(c.entries, e)
	}

	for _, k := range ck.KeyLog {
		c.cover[k] = struct{}{}
	}
	c.keyLog = append(c.keyLog, ck.KeyLog...)
	for _, h := range ck.Seen {
		c.seen[h] = true
	}
	c.runs = ck.Runs
	c.sigKeys = ck.SigKeys
	c.verdictKey = ck.VerdictKeys
	c.edgeKeys = ck.EdgeKeys
	c.staticKeys = ck.StaticKeys
	c.mutants = ck.Mutants
	c.quarantined = ck.Quarantined
	c.trajectory = append(c.trajectory, ck.Trajectory...)
	return nil
}
