package main

import (
	"fmt"
	"path/filepath"

	"spotless/internal/ledger"
	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
)

// checkReal is the correctness gate of a real-time run. Call it with every
// replica stopped. It returns the first violation found:
//
//   - each ledger's hash chain verifies;
//   - any two ledgers hold the same block at every height both retain, and
//     where one was pruned past the other's blocks its chain-resume hash is
//     the other's block hash there;
//   - every acknowledged batch that any ledger still retains is in at least
//     f+1 of the ledgers retaining that height (checkpoints prune blocks
//     below the stable cut, so older batches are vouched for by the
//     resume-hash agreement above);
//   - replicas stopped at equal height hold identical tables;
//   - with a WAL, reopening each directory replays the chain the live ledger
//     stopped with, the last acknowledged batch included (checkReplay).
func checkReal(rc *realCluster, acked []*op) error {
	ledgers := make([]*ledger.Ledger, rc.n)
	for i, e := range rc.execs {
		ledgers[i] = e.Ledger()
		if err := ledgers[i].Verify(); err != nil {
			return fmt.Errorf("replica %d: ledger: %w", i, err)
		}
		if err := ledgers[i].StoreErr(); err != nil {
			return fmt.Errorf("replica %d: ledger persistence: %w", i, err)
		}
	}
	if err := checkLedgers(ledgers, rc.f, acked); err != nil {
		return err
	}
	for i := 0; i < rc.n; i++ {
		for j := i + 1; j < rc.n; j++ {
			if ledgers[i].Height() == ledgers[j].Height() &&
				rc.execs[i].Store().Fingerprint() != rc.execs[j].Store().Fingerprint() {
				return fmt.Errorf("replicas %d and %d stopped at height %d with different tables", i, j, ledgers[i].Height())
			}
		}
	}
	if rc.dir != "" {
		return checkReplay(rc, acked)
	}
	return nil
}

// retained returns the blocks a ledger still holds and its pruning point.
func retained(lg *ledger.Ledger) (ledger.Snapshot, []types.BlockRecord) {
	snap := lg.Snapshot()
	return snap, lg.Blocks(snap.Height, int(lg.Height()-snap.Height))
}

func checkLedgers(ledgers []*ledger.Ledger, f int, acked []*op) error {
	n := len(ledgers)
	snaps := make([]ledger.Snapshot, n)
	blocks := make([][]types.BlockRecord, n)
	hashAt := make([]map[uint64]types.Digest, n) // height → block hash
	for i, lg := range ledgers {
		snaps[i], blocks[i] = retained(lg)
		hashAt[i] = make(map[uint64]types.Digest, len(blocks[i]))
		for _, b := range blocks[i] {
			hashAt[i][b.Height] = b.Hash
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for _, b := range blocks[i] {
				if h, ok := hashAt[j][b.Height]; ok && h != b.Hash {
					return fmt.Errorf("replicas %d and %d disagree on block %d", i, j, b.Height)
				}
			}
			if base := snaps[i].Height; base > 0 {
				if h, ok := hashAt[j][base-1]; ok && h != snaps[i].Resume {
					return fmt.Errorf("replica %d resumes at %d from a hash replica %d does not hold", i, base, j)
				}
			}
		}
	}
	// Where is each batch, and which ledgers could still show that height?
	holders := make(map[types.Digest]int)
	heightOf := make(map[types.Digest]uint64)
	for i := range blocks {
		for _, b := range blocks[i] {
			holders[b.BatchID]++
			heightOf[b.BatchID] = b.Height
		}
	}
	for _, o := range acked {
		have, ok := holders[o.id]
		if !ok {
			continue // below every replica's stable cut
		}
		h, pruned := heightOf[o.id], 0
		for i := range snaps {
			if snaps[i].Height > h {
				pruned++
			}
		}
		if have+pruned < f+1 {
			return fmt.Errorf("acknowledged batch %s at height %d is in %d ledgers, want %d", o.id.Short(), h, have, f+1)
		}
	}
	return nil
}

// checkReplay reopens every WAL directory the way a restarting replica
// would: each must replay, without a complaint, to the height its live
// ledger stopped at, and the last acknowledged batch must be in at least
// f+1 of the replayed chains — or nowhere at all, live ledgers included,
// when the run stopped right on a checkpoint cut that pruned it.
func checkReplay(rc *realCluster, acked []*op) error {
	if len(acked) == 0 {
		return nil
	}
	last := acked[0]
	for _, o := range acked {
		if o.acked > last.acked {
			last = o
		}
	}
	holds := func(blocks []types.BlockRecord) bool {
		for _, b := range blocks {
			if b.BatchID == last.id {
				return true
			}
		}
		return false
	}
	live, replayed := 0, 0
	for i := 0; i < rc.n; i++ {
		dir := filepath.Join(rc.dir, fmt.Sprintf("r%d", i))
		var complaint string // OpenDurable logs only when the disk contradicts itself
		lg, st, _, _, err := runtime.OpenDurable(dir, wal.Config{Fsync: wal.FsyncPerCommit,
			Logf: func(format string, args ...any) { complaint = fmt.Sprintf(format, args...) }})
		if err != nil {
			return fmt.Errorf("replica %d: reopen WAL: %w", i, err)
		}
		_, blocks := retained(lg)
		head := lg.Height()
		if cerr := st.Close(); cerr != nil {
			return fmt.Errorf("replica %d: close reopened WAL: %w", i, cerr)
		}
		if complaint != "" {
			return fmt.Errorf("replica %d: reopen WAL: %s", i, complaint)
		}
		if stopped := rc.execs[i].Ledger().Height(); head != stopped {
			return fmt.Errorf("replica %d: WAL replays to height %d, ledger stopped at %d", i, head, stopped)
		}
		if holds(blocks) {
			replayed++
		}
		if _, liveBlocks := retained(rc.execs[i].Ledger()); holds(liveBlocks) {
			live++
		}
	}
	if replayed < live || (live > 0 && replayed < rc.f+1) {
		return fmt.Errorf("last acknowledged batch %s is in %d live ledgers but replays from %d WALs", last.id.Short(), live, replayed)
	}
	return nil
}

// checkSim is the gate of a virtual-time run: the healthy replicas delivered
// the same sequence (each a prefix of the longest); the crashed replica
// delivered a prefix of it up to the crash and, from the moment each restart
// had caught up, a subsequence of it in order; every acknowledged batch was
// delivered by at least f+1 replicas; and every restart did catch up.
func checkSim(o *trial) error {
	var ref []types.Digest
	for _, s := range o.healthy[:o.sc.n-1] {
		if len(s) > len(ref) {
			ref = s
		}
	}
	for i, s := range o.healthy[:o.sc.n-1] {
		for k := range s {
			if s[k] != ref[k] {
				return fmt.Errorf("replica %d delivered %s at position %d, the longest sequence has %s", i, s[k].Short(), k, ref[k].Short())
			}
		}
	}
	// The crashed replica: up to the first crash a prefix like everyone; after
	// a restart has caught up, a subsequence in order — state transfer may
	// carry it over a gap more than once, but it must never deliver what the
	// others did not, nor in another order.
	for r, run := range o.victim {
		if run.provisional {
			continue
		}
		at := 0
		for k, id := range run.ids {
			for at < len(ref) && ref[at] != id {
				if r == 0 {
					return fmt.Errorf("crashed replica delivered %s at position %d before its first crash, the others %s", id.Short(), k, ref[at].Short())
				}
				at++
			}
			if at == len(ref) {
				return fmt.Errorf("crashed replica, run %d: delivery %d (%s) is not in the others' sequence in this order", r, k, id.Short())
			}
			at++
		}
	}
	delivered := make(map[types.Digest]int)
	count := func(s []types.Digest) {
		seen := make(map[types.Digest]bool, len(s))
		for _, id := range s {
			if !seen[id] {
				seen[id] = true
				delivered[id]++
			}
		}
	}
	for _, s := range o.healthy[:o.sc.n-1] {
		count(s)
	}
	var all []types.Digest
	for _, run := range o.victim {
		all = append(all, run.ids...)
	}
	count(all)
	f := (o.sc.n - 1) / 3
	for _, op := range o.acked {
		if delivered[op.id] < f+1 {
			return fmt.Errorf("acknowledged batch %s was delivered by %d replicas, want %d", op.id.Short(), delivered[op.id], f+1)
		}
	}
	if len(o.rejoins) != len(o.sc.outages) {
		return fmt.Errorf("%d of %d restarts caught up with the cluster", len(o.rejoins), len(o.sc.outages))
	}
	return nil
}
