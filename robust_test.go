package parcoach_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parcoach"
	"parcoach/internal/chaos"
	"parcoach/internal/leakcheck"
)

// robustOpts is the compact campaign every robustness test runs: small
// enough to finish in test time, large enough for several rounds (so a
// halt-after-round-1 resume genuinely continues work). Mutant reduction
// is off — it is a pure function of the committed corpus, so it adds
// only time here (TestCampaignSmoke covers it).
func robustOpts(workers int) parcoach.CampaignOptions {
	return parcoach.CampaignOptions{
		Seeds:    campaignSeeds(10),
		Budget:   70,
		Seed:     7,
		Workers:  workers,
		NoReduce: true,
	}
}

// TestCampaignCheckpointResumeByteIdentity pins the resume contract: a
// campaign halted after round 1 (the deterministic kill switch) and
// resumed from its checkpoint renders byte-identically to the same
// campaign run uninterrupted — at every worker count.
func TestCampaignCheckpointResumeByteIdentity(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 4, 8} {
		uninterrupted, err := parcoach.Campaign(robustOpts(workers))
		if err != nil {
			t.Fatalf("workers=%d uninterrupted: %v", workers, err)
		}
		if len(uninterrupted.Trajectory) < 2 {
			t.Fatalf("workers=%d: campaign finished in %d round(s); the halt/resume split needs at least 2",
				workers, len(uninterrupted.Trajectory))
		}

		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		halted := robustOpts(workers)
		halted.Checkpoint = ckpt
		halted.HaltAfterRound = 1
		if _, err := parcoach.Campaign(halted); err != nil {
			t.Fatalf("workers=%d halted: %v", workers, err)
		}

		resumed := robustOpts(workers)
		resumed.Checkpoint = ckpt
		resumed.Resume = ckpt
		got, err := parcoach.Campaign(resumed)
		if err != nil {
			t.Fatalf("workers=%d resumed: %v", workers, err)
		}
		if got.Format() != uninterrupted.Format() {
			t.Fatalf("workers=%d: resumed report differs from uninterrupted:\n--- uninterrupted\n%s\n--- resumed\n%s",
				workers, uninterrupted.Format(), got.Format())
		}
	}
}

// TestCampaignResumesCommittedCheckpoint pins the checkpoint format: a
// committed checkpoint, written by `mhgen campaign -seed 0 -n 5 -budget
// 40 -campaign-seed 7 -checkpoint F -halt-after-round 1`, resumes to
// the report of the same campaign run straight through. The resume
// names no Checkpoint, so nothing rewrites the file; it reads a copy
// all the same.
func TestCampaignResumesCommittedCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "campaign", "halted-round1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := parcoach.CampaignOptions{Seeds: campaignSeeds(5), Budget: 40, Seed: 7}
	straight, err := parcoach.Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = ckpt
	resumed, err := parcoach.Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Format() != straight.Format() {
		t.Fatalf("resumed committed checkpoint differs from the straight run:\n--- straight\n%s\n--- resumed\n%s",
			straight.Format(), resumed.Format())
	}
}

// TestCampaignResumeRejectsDivergentOptions: resuming under options that
// would change the trajectory is a loud error, not a silent divergence.
func TestCampaignResumeRejectsDivergentOptions(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
	halted := robustOpts(2)
	halted.Checkpoint = ckpt
	halted.HaltAfterRound = 1
	if _, err := parcoach.Campaign(halted); err != nil {
		t.Fatal(err)
	}
	diverged := robustOpts(2)
	diverged.Seed = 8 // different schedule derivation
	diverged.Checkpoint = ckpt
	diverged.Resume = ckpt
	if _, err := parcoach.Campaign(diverged); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("divergent resume error = %v, want a fingerprint mismatch", err)
	}
}

// TestCampaignCancelPartialReport: canceling the campaign context stops
// it between (or mid-) rounds with a well-formed partial report marked
// Canceled, and the dropped partial round never merges.
func TestCampaignCancelPartialReport(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := chaos.Arm(chaos.Config{
		"campaign.execute": {First: 10, Action: chaos.ActCancel, Cancel: cancel},
	})
	defer disarm()

	opts := robustOpts(2)
	opts.Ctx = ctx
	rep, err := parcoach.Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("canceled campaign did not mark its report Canceled")
	}
	if rep.Runs >= opts.Budget {
		t.Fatalf("canceled campaign still spent the full budget: %d/%d", rep.Runs, opts.Budget)
	}
	if !strings.Contains(rep.Format(), "robustness canceled=true") {
		t.Fatalf("rendered report lacks the robustness line:\n%s", rep.Format())
	}
}

// TestCampaignQuarantinesPanickingJob: a run job that panics is caught
// at the pool boundary, counted, its entry retired, and the campaign
// completes.
func TestCampaignQuarantinesPanickingJob(t *testing.T) {
	leakcheck.Check(t)
	disarm := chaos.Arm(chaos.Config{
		"campaign.execute": {First: 4, Action: chaos.ActPanic},
	})
	defer disarm()

	rep, err := parcoach.Campaign(robustOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", rep.Quarantined)
	}
	if rep.Canceled {
		t.Fatal("a quarantined panic canceled the campaign")
	}
	if !strings.Contains(rep.Format(), "quarantined=1") {
		t.Fatalf("rendered report lacks the quarantine count:\n%s", rep.Format())
	}
}

// TestChaosSoak is the deterministic fault-injection soak: the same
// small workload runs (a) fault-free, (b) under injected panics and
// injected slow runs, and (c) fault-free again. The harness must survive
// (b) with quarantined verdicts and zero goroutine leaks, and (c) must
// be byte-identical to (a) — faults leave no residue in pools, caches or
// counters that alters later results.
func TestChaosSoak(t *testing.T) {
	leakcheck.Check(t)

	const soakSrc = `
func main() {
	MPI_Init()
	var x = rank()
	parallel num_threads(2) {
		MPI_Barrier()
	}
	MPI_Allreduce(x, x, sum)
	MPI_Finalize()
	return x
}`
	prog, err := parcoach.Compile("soak.mh", soakSrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	explore := func() *parcoach.ExplorationReport {
		return prog.Explore(parcoach.ExploreOptions{
			Strategy:  parcoach.ExploreRandom,
			Schedules: 48,
			Seed:      11,
			Workers:   4,
			MaxSteps:  200_000,
		})
	}

	baseline := explore().String()

	// Faulted pass: every 7th run panics, every 5th run stalls briefly.
	disarm := chaos.Arm(chaos.Config{
		"explore.run": {First: 5, Every: 7, Action: chaos.ActPanic},
	})
	faulted := explore()
	disarm()
	if faulted.Quarantined == 0 {
		t.Fatal("faulted pass quarantined nothing: the injector never reached the run boundary")
	}

	disarm = chaos.Arm(chaos.Config{
		"explore.run": {First: 3, Every: 5, Action: chaos.ActSleep, Sleep: 2 * time.Millisecond},
	})
	slowed := explore()
	disarm()
	if slowed.Schedules != 48 {
		t.Fatalf("slowed pass lost schedules: %d/48", slowed.Schedules)
	}

	// Fault-free replay: byte-identical to the pristine baseline.
	if replay := explore().String(); replay != baseline {
		t.Fatalf("fault-free replay differs from baseline — faults left residue:\n--- baseline\n%s\n--- replay\n%s",
			baseline, replay)
	}
}
