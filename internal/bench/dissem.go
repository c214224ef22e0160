package bench

import "time"

// This file is the dissemination experiment (ISSUE 6): grow the batch size
// 10–100x and compare digest ordering (internal/dissem) against the seed's
// inline-payload ordering. The claim under test is the Mandator/Narwhal
// separation argument: once payload fan-out leaves the consensus critical
// path, committed throughput in ktxn/s stays roughly flat as payloads grow,
// while the inline arm degrades — consensus messages queue behind payload
// bytes, timers fire, and view progress collapses.

// dissemOpts is the experiment's shared configuration on the calibrated
// 4-replica LAN model: both arms run the exact same cluster and load shape,
// only the ordering mode differs.
//
//   - TuneBatchSize pins the timer auto-tuning at the 100-txn baseline:
//     the cluster was tuned once, then the workload's payloads grew. The
//     inline arm then collapses at 100x — proposals serialize longer than
//     the recording timeout, every view resolves ∅, and re-proposals amplify
//     the overload — while digest ordering's control-sized proposals keep
//     landing inside the window.
//   - The 1200 Mbps egress model makes payload serialization (not CPU) the
//     contended resource, the WAN-scale regime the issue targets.
//   - Outstanding 128 keeps the closed loop deep enough to saturate the
//     dissemination pipeline (push → ack → cert → proposal slot adds ~2
//     one-way delays of depth over inline ordering).
func dissemOpts(batchSize int, dissem bool) Options {
	o := Options{
		Protocol:      SpotLess,
		N:             4,
		BatchSize:     batchSize,
		Dissem:        dissem,
		TuneBatchSize: 100,
		BandwidthMbps: 1200,
		Outstanding:   128,
	}
	// Hold the measurement window long enough that even the degraded
	// inline arm at 100x commits a statistically meaningful batch count.
	o.Measure = 1500 * time.Millisecond
	if quickTrim {
		o.Measure = 400 * time.Millisecond
	}
	return o
}
