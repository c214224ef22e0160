package main

import (
	stdruntime "runtime"
	"time"

	"spotless/internal/core"
	"spotless/internal/simnet"
)

// perBatch divides a count by the batches acknowledged in the traced
// interval; every *_batch metric is such a ratio.
func perBatch(count uint64, batches int) float64 {
	if batches == 0 {
		return 0
	}
	return float64(count) / float64(batches)
}

// stageSamples turns the trace stamps of acknowledged batches into the
// stage durations (ms) the traced run reports.
type stageSamples struct{ queue, certify, order, reply []float64 }

func stages(ops []*op) stageSamples {
	var s stageSamples
	for _, o := range ops {
		for _, sp := range stageSpans(o) {
			d := ms(sp.end - sp.start)
			switch sp.name {
			case "queue":
				s.queue = append(s.queue, d)
			case "certify":
				s.certify = append(s.certify, d)
			case "order":
				s.order = append(s.order, d)
			case "reply":
				s.reply = append(s.reply, d)
			}
		}
	}
	return s
}

// coreState reads the replicas' own accessors once they are stopped.
func coreState(m map[string]float64, reps []*core.Replica) {
	var noops, delivered, resyncs uint64
	var stall time.Duration
	var props, views int
	var lag uint64
	for _, r := range reps {
		noops += r.NoOps
		delivered += r.Delivered
		resyncs += r.Resyncs()
		stall += r.TotalResyncStall()
		p, v := r.StateFootprint()
		if p > props {
			props = p
		}
		if v > views {
			views = v
		}
		if d, s := r.DeliveredCount(), r.StableHeight(); d > s && d-s > lag {
			lag = d - s
		}
	}
	if noops+delivered > 0 {
		m["core.noop_frac"] = float64(noops) / float64(noops+delivered)
	}
	m["core.resyncs"] = float64(resyncs)
	m["core.resync_stall_ms"] = ms(stall)
	m["core.state_proposals"] = float64(props)
	m["core.state_views"] = float64(views)
	m["core.stable_lag"] = float64(lag)
}

func clientLatencies(m map[string]float64, ops []*op) {
	lat := latenciesMs(ops)
	late := make([]float64, len(ops))
	for i, o := range ops {
		late[i] = ms(o.late)
	}
	m["client.p50_ms"] = quantile(lat, 0.50)
	m["client.p95_ms"] = quantile(lat, 0.95)
	m["client.p99_ms"] = quantile(lat, 0.99)
	m["client.late_ms_p99"] = quantile(late, 0.99)
}

func stageMetrics(m map[string]float64, s stageSamples) {
	m["runtime.queue_ms_p50"] = median(s.queue)
	m["dissem.certify_ms_p50"] = median(s.certify)
	m["core.order_ms_p50"] = median(s.order)
	m["core.order_ms_p95"] = quantile(s.order, 0.95)
	m["runtime.reply_ms_p50"] = median(s.reply)
}

// perLayerReal fills in the traced-run metrics of a real-time workload. s0,
// s1 and s2 are the snapshots at the start of the untraced reference
// interval, at the switch to tracing, and at the end.
func perLayerReal(res *result, w *workload, rc *realCluster, tr *tracer,
	acked []*op, reference, traced interval, s0, s1, s2 snapshot) {
	m := res.metrics
	ops := dueIn(acked, traced)
	tracedKtxn, txns := throughput(acked, traced)
	batches := 0
	for _, o := range acked {
		if traced.has(o.acked) {
			batches++
		}
	}
	d := func(a, b uint64) uint64 { return b - a }

	m["crypto.signs_batch"] = perBatch(d(s1.tr.signs, s2.tr.signs), batches)
	m["crypto.verifies_batch"] = perBatch(d(s1.tr.verifies, s2.tr.verifies), batches)
	m["crypto.macs_batch"] = perBatch(d(s1.tr.macs, s2.tr.macs), batches)
	if cpu := s2.cpu - s1.cpu; cpu > 0 {
		m["crypto.busy_frac"] = float64(s2.tr.cryptoNs-s1.tr.cryptoNs) / float64(cpu)
	}

	m["transport.frames_batch"] = perBatch(d(s1.tr.frames, s2.tr.frames), batches)
	m["transport.bytes_out_batch"] = perBatch(d(s1.egress, s2.egress), batches)
	m["transport.send_us_p50"] = tr.sendUs.q(0.5)
	m["transport.queue_sheds"] = float64(d(s0.net.QueueSheds, s2.net.QueueSheds))
	m["transport.ingress_drops"] = float64(d(s0.net.IngressDrops, s2.net.IngressDrops))
	m["transport.mac_rejections"] = float64(d(s0.net.MACRejections, s2.net.MACRejections))
	m["transport.decode_failures"] = float64(d(s0.net.DecodeFailures, s2.net.DecodeFailures))

	m["core.msgs_batch"] = perBatch(d(s1.tr.coreMsgs, s2.tr.coreMsgs), batches)
	m["core.proposes_batch"] = perBatch(d(s1.tr.proposes, s2.tr.proposes), batches)
	m["core.syncs_batch"] = perBatch(d(s1.tr.syncs, s2.tr.syncs), batches)
	m["core.asks_batch"] = perBatch(d(s1.tr.asks, s2.tr.asks), batches)
	coreState(m, rc.reps)

	m["dissem.pushed_b_batch"] = perBatch(d(s1.dis.PushedBytes, s2.dis.PushedBytes), batches)
	m["dissem.served_b_batch"] = perBatch(d(s1.dis.ServedBytes, s2.dis.ServedBytes), batches)
	m["dissem.backfills_batch"] = perBatch(d(s1.dis.Backfills, s2.dis.Backfills), batches)
	m["dissem.requeued"] = float64(d(s0.dis.Requeued, s2.dis.Requeued))
	m["dissem.chunk_pulls_batch"] = perBatch(d(s1.dis.ChunkPulls, s2.dis.ChunkPulls), batches)
	m["dissem.chunk_rejects"] = float64(d(s0.dis.ChunkRejects, s2.dis.ChunkRejects))
	m["dissem.reconstructions_batch"] = perBatch(d(s1.dis.Reconstructions, s2.dis.Reconstructions), batches)
	m["dissem.reconstruct_fails"] = float64(d(s0.dis.ReconstructFails, s2.dis.ReconstructFails))

	stageMetrics(m, stages(ops))
	m["runtime.execute_us_p50"] = tr.executeUs.q(0.5)
	m["runtime.execute_us_p95"] = tr.executeUs.q(0.95)
	var dropped, badSigs uint64
	for _, nd := range rc.nodes {
		dropped += nd.Dropped()
		badSigs += nd.BadSigs()
	}
	m["runtime.dropped"] = float64(dropped)
	m["runtime.bad_sigs"] = float64(badSigs)

	m["ycsb.snapshot_ms_p50"] = tr.snapshotMs.q(0.5)

	m["wal.fsyncs_batch"] = perBatch(d(s1.tr.fsyncs, s2.tr.fsyncs), batches)
	m["wal.fsync_us_p50"] = tr.fsyncUs.q(0.5)
	m["wal.fsync_us_p95"] = tr.fsyncUs.q(0.95)
	m["wal.write_b_batch"] = perBatch(d(s1.tr.walBytes, s2.tr.walBytes), batches)
	m["wal.busy_frac"] = float64(s2.tr.walNs-s1.tr.walNs) / (float64(s2.at-s1.at) * float64(rc.n))
	m["wal.snapshot_write_ms_p50"] = tr.snapWriteMs.q(0.5)

	clientLatencies(m, ops)

	if txns > 0 {
		m["go.allocs_txn"] = float64(s2.mem.Mallocs-s1.mem.Mallocs) / float64(txns)
		m["go.alloc_b_txn"] = float64(s2.mem.TotalAlloc-s1.mem.TotalAlloc) / float64(txns)
	}
	m["go.gc_pause_ms"] = float64(s2.mem.PauseTotalNs-s1.mem.PauseTotalNs) / 1e6

	// What recording cost: the saturated workload loses throughput, a paced
	// one spends more CPU per transaction.
	refKtxn, refTxns := throughput(acked, reference)
	if w.rate == 0 {
		if refKtxn > 0 {
			m["trace.overhead_frac"] = 1 - tracedKtxn/refKtxn
		}
	} else if refTxns > 0 && txns > 0 {
		refCost := float64(s1.cpu-s0.cpu) / float64(refTxns)
		m["trace.overhead_frac"] = float64(s2.cpu-s1.cpu)/float64(txns)/refCost - 1
	}
	res.infof("traced interval: %d batches acknowledged, %d due in it; stage medians queue %.3f + order %.3f + execute %.3f + reply %.3f ms vs client.p50_ms %.3f",
		batches, len(ops), m["runtime.queue_ms_p50"], m["core.order_ms_p50"], m["runtime.execute_us_p50"]/1000, m["runtime.reply_ms_p50"], m["client.p50_ms"])
}

// perLayerSim fills in the traced-run metrics of the sim-crash workload,
// summed over its trials.
func perLayerSim(res *result, run *simRun, tr *tracer) {
	m := res.metrics
	whole := interval{run.sc.warm, run.sc.end}
	var ops []*op
	var reps []*core.Replica
	var st simnet.Stats
	batches, retrans, backlog := 0, 0, 0
	for _, t := range run.trials {
		ops = append(ops, dueIn(t.acked, whole)...)
		reps = append(reps, t.reps...)
		batches += len(t.acked)
		retrans += t.retrans
		backlog += len(t.unacked)
		st.EventsRun += t.stats.EventsRun
		st.MessagesSent += t.stats.MessagesSent
		st.BytesSent += t.stats.BytesSent
	}
	t := tr.counts()
	m["core.msgs_batch"] = perBatch(t.coreMsgs, batches)
	m["core.proposes_batch"] = perBatch(t.proposes, batches)
	m["core.syncs_batch"] = perBatch(t.syncs, batches)
	m["core.asks_batch"] = perBatch(t.asks, batches)
	coreState(m, reps)

	stageMetrics(m, stages(ops))
	m["runtime.execute_us_p50"] = batchTxns / simnet.DefaultConfig(run.sc.n).ExecRate * 1e6 // the simulator's modelled execution
	m["runtime.execute_us_p95"] = m["runtime.execute_us_p50"]
	clientLatencies(m, ops)
	m["client.retransmits"] = float64(retrans)
	m["client.backlog_end"] = float64(backlog)

	m["simnet.events_s"] = float64(st.EventsRun) / run.wall.Seconds()
	m["simnet.msgs_batch"] = perBatch(st.MessagesSent, batches)
	m["simnet.bytes_batch"] = perBatch(st.BytesSent, batches)

	if run.txns > 0 {
		m["go.allocs_txn"] = float64(run.mem[1].Mallocs-run.mem[0].Mallocs) / float64(run.txns)
		m["go.alloc_b_txn"] = float64(run.mem[1].TotalAlloc-run.mem[0].TotalAlloc) / float64(run.txns)
	}
	m["go.gc_pause_ms"] = float64(run.mem[1].PauseTotalNs-run.mem[0].PauseTotalNs) / 1e6
	m["go.goroutines"] = float64(stdruntime.NumGoroutine())
}
