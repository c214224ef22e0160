package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"spotless/internal/simnet"
	"spotless/internal/types"
	"spotless/internal/wal"
)

// This file is the crash/disk-fault chaos soak: the durability proof for
// execution snapshots. Each seeded run drives a durable cluster on the
// simulator (drill.go), then repeatedly kill-9s a victim under load,
// injects a disk fault from a seeded menu — bit flips and truncations on the
// snapshot file at rest, snapshot loss, segment corruption, fsync failures
// at snapshot-write time, a power cut dropping unsynced bytes — and
// restarts it. The invariant: at quiescence every replica's YCSB table
// byte-matches the never-crashed control replica, cold keys included, and
// no two ledgers disagree on a slot. Restores, forward-replay fallbacks,
// and quarantines are tallied so the run also shows WHICH recovery path
// each fault exercised — a soak where every fault healed through the clean
// path would prove much less.

// The crash soak's cell: two kill/fault/restart episodes per seed over a
// 256-key table, so snapshots stay small.
const (
	crashSoakEpisodes = 2
	crashSoakRecords  = 256
)

// CrashSoakOptions parameterizes the soak.
type CrashSoakOptions struct {
	Seeds    int   // seeded runs (default 20)
	SeedBase int64 // first seed of the sweep (default 1)
	// CheckpointInterval is the stable-frontier stride (default 8: several
	// checkpoints — and snapshots — per episode).
	CheckpointInterval int

	// adversary installs simnet.RandomAdversary(seed, n, 1) for the whole
	// run: the composed fault cell, whose starved seeds may not converge.
	adversary bool
}

// Crash-soak disk-fault kinds. "none" is the pure kill-9; the rest corrupt
// or destroy durable state while (or just before) the victim is down.
const (
	faultNone         = "none"
	faultSnapFlip     = "snap-flip"     // one bit flipped in the snapshot body
	faultSnapTruncate = "snap-truncate" // snapshot tail torn at rest
	faultSnapRemove   = "snap-remove"   // snapshot lost, manifest intact
	faultSegFlip      = "segment-flip"  // ledger segment bit flip
	faultSyncFail     = "sync-fail"     // disk rejects fsyncs at snapshot-write time
	faultPowerCut     = "power-cut"     // machine loses power: unsynced bytes gone
)

var crashFaults = []string{faultNone, faultSnapFlip, faultSnapTruncate,
	faultSnapRemove, faultSegFlip, faultSyncFail, faultPowerCut}

// CrashSoakSeed is one seeded run's outcome.
type CrashSoakSeed struct {
	Seed        int64
	Faults      []string      // fault kind per episode, in order
	Restored    uint64        // snapshot restores across all victim restarts
	Fallbacks   int           // forward-replay fallbacks (loss/corruption signature)
	Quarantined int           // snapshot files renamed aside
	Keys        int           // control keys holding a workload-written value at quiescence
	Rejected    int           // resume states ApplyResume refused: a silent rejoin from scratch
	Converge    time.Duration // virtual time from the start of the run to convergence
	Stalled     bool          // a wait ran out of virtual time; the episodes stopped there
	Diverged    bool          // a table did not converge with the control
	Forked      bool          // two ledgers delivered different batches at one slot
	Report      string
}

// CrashSoakResult aggregates the soak.
type CrashSoakResult struct {
	Options     CrashSoakOptions
	Seeds       []CrashSoakSeed
	Divergent   int // seeds that diverged or forked
	Stalled     int // seeds whose episodes stopped at a stalled wait
	Restored    uint64
	Fallbacks   int
	Quarantined int
	Rejected    int
}

// RunCrashSoak sweeps the seeds.
func RunCrashSoak(o CrashSoakOptions) CrashSoakResult {
	if o.Seeds == 0 {
		o.Seeds = 20
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 8
	}
	res := CrashSoakResult{Options: o}
	for seed := o.SeedBase; seed < o.SeedBase+int64(o.Seeds); seed++ {
		sr := runCrashSeed(o, seed)
		res.Seeds = append(res.Seeds, sr)
		if sr.Diverged || sr.Forked {
			res.Divergent++
		}
		if sr.Stalled {
			res.Stalled++
		}
		res.Restored += sr.Restored
		res.Fallbacks += sr.Fallbacks
		res.Quarantined += sr.Quarantined
		res.Rejected += sr.Rejected
	}
	return res
}

func runCrashSeed(o CrashSoakOptions, seed int64) CrashSoakSeed {
	sr := CrashSoakSeed{Seed: seed}
	d, reps := newDurableDrill(seed, crashSoakRecords, o.CheckpointInterval, true)
	if o.adversary {
		d.sim.SetAdversary(simnet.RandomAdversary(seed, len(reps), 1))
	}
	start := d.sim.Now()
	if stall := crashEpisodes(o, seed, d, reps, &sr); stall != "" {
		sr.Stalled = true
		sr.Report = fmt.Sprintf("stalled: %s did not happen within %v of virtual time\n", stall, drillWait)
	}
	for _, r := range reps {
		sr.Rejected += r.rejected
	}

	// Quiesce: stop issuing batches, let in-flight commits land, then
	// compare tables byte-for-byte and ledgers by slot.
	d.sim.SetBatchSource(nil)
	converged := d.until(func() bool { return tablesConverged(reps) })
	sr.Converge = d.sim.Now() - start
	for _, v := range reps[0].exec.Store().Dump() {
		if len(v) != 64 { // the initial payload is 64 bytes
			sr.Keys++
		}
	}
	if !converged {
		sr.Diverged = true
		sr.Report += divergenceReport(reps)
	}
	if fork, forked := diffLedgersSparse(seed, d.ledgers); forked {
		sr.Forked = true
		sr.Report += fork.Report
	}
	return sr
}

// crashEpisodes runs the warmup, the seed's kill/fault/restart episodes and
// the rest of the 600-batch load budget, tallying into sr. It returns the
// first wait that ran out of virtual time ("" if none); the episodes stop
// there.
func crashEpisodes(o CrashSoakOptions, seed int64, d *drill, reps []*durable, sr *CrashSoakSeed) string {
	rng := rand.New(rand.NewSource(seed))
	if !d.commits(o.CheckpointInterval + 4) {
		return "warmup commits"
	}
	for ep := 0; ep < crashSoakEpisodes; ep++ {
		// Victims are drawn from [1, n): replica 0 is the never-crashed
		// control every table is compared against.
		id := types.NodeID(1 + rng.Intn(len(reps)-1))
		victim := reps[id]
		fault := crashFaults[rng.Intn(len(crashFaults))]

		// Wait until the victim persisted a snapshot for the fault to corrupt.
		if !d.until(func() bool { return victim.wal.Stats().SnapshotsWritten > 0 }) {
			return fmt.Sprintf("r%d's first snapshot", id)
		}
		if fault == faultSyncFail {
			// Fsyncs fail while the victim is still up: the next snapshot
			// save (and any append sync) fails live, then the process dies.
			victim.fs.FailSyncs(errors.New("crashsoak: injected fsync EIO"))
			d.commits(o.CheckpointInterval + 2)
		}
		d.sim.SetDown(id, true)
		injectAtRest(victim.fs, victim.dir, fault, rng)
		sr.Faults = append(sr.Faults, fmt.Sprintf("r%d:%s", id, fault))
		// The outage spans ≥2 checkpoint strides, so the rejoin runs through
		// state transfer, whose chunk carries the healing snapshot.
		outage := d.commits(2*o.CheckpointInterval + 4)
		victim.fs.FailSyncs(nil) // the transient disk error clears
		d.sim.Restart(id, victim.build)
		// The restart opened a fresh WAL store: its counters are exactly what
		// recovery did.
		st := victim.wal.Stats()
		sr.Restored += st.SnapshotsRestored
		sr.Fallbacks += st.RestoreFallbacks
		sr.Quarantined += st.SnapshotsQuarantined
		if !outage {
			return fmt.Sprintf("r%d's outage commits", id)
		}
		// Let the victim rejoin before the next episode picks a new victim.
		if !d.until(func() bool { return victim.core.StableHeight() >= reps[0].core.StableHeight() }) {
			return fmt.Sprintf("r%d's rejoin", id)
		}
	}
	if !d.until(func() bool { return d.col.BatchesDone >= 600 }) {
		return "the 600-batch load budget"
	}
	return ""
}

// injectAtRest applies the episode's disk fault to the dead victim's
// filesystem. Faults that need a live process (sync-fail) were injected
// before the kill; power-cut models the machine, not the disk.
func injectAtRest(fsys *wal.MemFS, dir, fault string, rng *rand.Rand) {
	find := func(prefix string) string {
		names, err := fsys.ReadDir(dir)
		if err != nil {
			return ""
		}
		for _, name := range names {
			if strings.HasPrefix(name, prefix) {
				return dir + "/" + name
			}
		}
		return ""
	}
	switch fault {
	case faultSnapFlip:
		if p := find("snap-"); p != "" {
			fsys.FlipBit(p, rng.Int63n(fsys.Size(p)), uint(rng.Intn(8)))
		}
	case faultSnapTruncate:
		if p := find("snap-"); p != "" {
			fsys.TruncateFile(p, fsys.Size(p)/2)
		}
	case faultSnapRemove:
		if p := find("snap-"); p != "" {
			_ = fsys.Remove(p)
		}
	case faultSegFlip:
		if p := find("seg-"); p != "" {
			fsys.FlipBit(p, rng.Int63n(fsys.Size(p)), uint(rng.Intn(8)))
		}
	case faultPowerCut:
		fsys.Crash()
	}
}

// tablesConverged reports whether every replica's table byte-matches the
// control (replica 0): same applied count, same record fingerprint.
func tablesConverged(reps []*durable) bool {
	want := reps[0].exec.Store().Fingerprint()
	applied := reps[0].exec.Store().Applied()
	for i := 1; i < len(reps); i++ {
		if reps[i].exec.Store().Applied() != applied ||
			reps[i].exec.Store().Fingerprint() != want {
			return false
		}
	}
	return true
}

// divergenceReport renders which replicas and keys disagree with the
// control — the forensic dump a failed soak leaves behind.
func divergenceReport(reps []*durable) string {
	var b strings.Builder
	control := reps[0].exec.Store().Dump()
	fmt.Fprintf(&b, "control applied=%d records=%d\n", reps[0].exec.Store().Applied(), len(control))
	for i := 1; i < len(reps); i++ {
		st := reps[i].exec.Store()
		if st.Fingerprint() == reps[0].exec.Store().Fingerprint() && st.Applied() == reps[0].exec.Store().Applied() {
			continue
		}
		dump := st.Dump()
		fmt.Fprintf(&b, "replica %d applied=%d records=%d; first mismatches:", i, st.Applied(), len(dump))
		shown := 0
		for k, v := range control {
			if shown >= 5 {
				break
			}
			if string(dump[k]) != string(v) {
				fmt.Fprintf(&b, " key %d (%d vs %d bytes)", k, len(dump[k]), len(v))
				shown++
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Verdict fails when any seed diverged from the control, forked or
// stalled, or when the sweep did not exercise both recovery paths: a clean
// snapshot restore AND the corruption signature (fallback or quarantine).
func (r CrashSoakResult) Verdict() error {
	errs := []error{
		check(r.Divergent == 0, "%d of %d seeds diverged from the never-crashed control", r.Divergent, len(r.Seeds)),
		check(r.Stalled == 0, "%d of %d seeds stalled before finishing their episodes", r.Stalled, len(r.Seeds)),
		check(r.Restored > 0, "no restart restored a snapshot"),
		check(r.Fallbacks+r.Quarantined > 0, "no restart took the corruption path (fallback or quarantine)"),
	}
	for _, s := range r.Seeds {
		errs = append(errs, check(!s.Diverged && !s.Forked && !s.Stalled, "seed %d (%v):\n%s", s.Seed, s.Faults, s.Report))
	}
	return errors.Join(errs...)
}

// Table renders the soak result.
func (r CrashSoakResult) Table() Table {
	t := Table{ID: "crashsoak",
		Title: fmt.Sprintf("crash/disk-fault soak: %d seeds × %d kill-9 episodes, checkpoint every %d",
			r.Options.Seeds, crashSoakEpisodes, r.Options.CheckpointInterval),
		Headers: []string{"seed", "episodes (victim:fault)", "restored", "fallbacks", "quarantined",
			"rejected resumes", "written keys", "converged", "in (virtual ms)"}}
	for _, s := range r.Seeds {
		conv := "yes"
		if s.Forked {
			conv = "FORKED"
		} else if s.Diverged {
			conv = "DIVERGED"
		} else if s.Stalled {
			conv = "STALLED"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s.Seed), strings.Join(s.Faults, " "),
			fmt.Sprintf("%d", s.Restored), fmt.Sprintf("%d", s.Fallbacks), fmt.Sprintf("%d", s.Quarantined),
			fmt.Sprintf("%d", s.Rejected), fmt.Sprintf("%d/%d", s.Keys, crashSoakRecords), conv, lat(s.Converge)})
	}
	t.Rows = append(t.Rows, []string{"total",
		fmt.Sprintf("%d diverged, %d stalled", r.Divergent, r.Stalled),
		fmt.Sprintf("%d", r.Restored), fmt.Sprintf("%d", r.Fallbacks),
		fmt.Sprintf("%d", r.Quarantined), fmt.Sprintf("%d", r.Rejected), "", "", ""})
	return t
}
