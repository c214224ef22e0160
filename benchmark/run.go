package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/dissem"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// options are the arguments of one workload run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	quick    bool // smoke test: one set-up, one probe trial, layer table at minimum iterations
}

// setups is how many times a real-time run sets its cluster up (the median
// is reported); probeTrials how many trials its fault probe runs.
func (o options) setups() int      { return pick(o.quick, 1, 3) }
func (o options) probeTrials() int { return pick(o.quick, 1, 5) }

func pick(cond bool, yes, no int) int {
	if cond {
		return yes
	}
	return no
}

// result is what one run reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	violation string
	metrics   map[string]float64
	info      []string // sample counts and other context for the human-readable output
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// interval is a stretch of the run clock, [from, to).
type interval struct{ from, to time.Duration }

func (iv interval) has(t time.Duration) bool { return t >= iv.from && t < iv.to }

// dueIn returns the acknowledged operations that were due in the interval.
func dueIn(acked []*op, iv interval) []*op {
	var out []*op
	for _, o := range acked {
		if iv.has(o.due) {
			out = append(out, o)
		}
	}
	return out
}

func latenciesMs(ops []*op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.acked - o.due)
	}
	return out
}

// windows cuts the interval into equal windows about `window` long and
// returns the acknowledged ktxn/s of each, counting an operation in the
// window its acknowledgement fell in and only if it took at most failAfter.
func windows(acked []*op, iv interval, window time.Duration) []float64 {
	k := max(1, int((iv.to-iv.from)/window))
	width := (iv.to - iv.from) / time.Duration(k)
	per := make([]float64, k)
	for _, o := range acked {
		if iv.has(o.acked) && o.acked-o.due <= failAfter {
			per[min(k-1, int((o.acked-iv.from)/width))] += float64(o.txns) / (width.Seconds() * 1000)
		}
	}
	return per
}

// throughput is the median of the interval's one-second windows, and the
// transactions acknowledged in it.
func throughput(acked []*op, iv interval) (ktxnS float64, txns int) {
	for _, o := range acked {
		if iv.has(o.acked) && o.acked-o.due <= failAfter {
			txns += o.txns
		}
	}
	return median(windows(acked, iv, time.Second)), txns
}

// snapshot is the process and cluster state at one instant of a real-time run.
type snapshot struct {
	at     time.Duration
	cpu    time.Duration
	egress uint64
	net    transport.Stats
	dis    dissem.Stats
	mem    stdruntime.MemStats
	tr     traceCounts
}

type traceCounts struct {
	signs, verifies, macs, frames, coreMsgs, proposes, syncs, asks, fsyncs, walBytes uint64
	cryptoNs, walNs                                                                  int64
}

func (t *tracer) counts() traceCounts {
	if t == nil {
		return traceCounts{}
	}
	return traceCounts{
		signs: t.signs.Load(), verifies: t.verifies.Load(), macs: t.macs.Load(),
		frames: t.frames.Load(), coreMsgs: t.coreMsgs.Load(), proposes: t.proposes.Load(),
		syncs: t.syncs.Load(), asks: t.asks.Load(), fsyncs: t.fsyncs.Load(), walBytes: t.walBytes.Load(),
		cryptoNs: t.cryptoNs.Load(), walNs: t.walNs.Load(),
	}
}

func takeSnapshot(c *client, rc *realCluster, tr *tracer, withMem bool) snapshot {
	s := snapshot{at: c.now(), cpu: cpuTime(), egress: rc.egressBytes(), net: rc.netStats(), dis: rc.dissemStats(), tr: tr.counts()}
	if withMem {
		stdruntime.ReadMemStats(&s.mem)
	}
	return s
}

// generator is the load generator's one goroutine. Open loop: it offers each
// batch at its due time. Closed loop: it keeps a pool of ready batches the
// acknowledgement path takes from, so a credit never waits for a batch to be
// built. Either way it runs the client's re-offer scan every 50 ms.
type generator struct {
	c      *client
	wl     *ycsb.Workload
	lanes  int
	pool   chan *types.Batch
	active atomic.Bool // closed loop: acknowledgements still issue new batches
	stop   chan struct{}
	wg     sync.WaitGroup
}

func (g *generator) runOpen(due []time.Duration) {
	defer g.wg.Done()
	scan := time.NewTicker(50 * time.Millisecond)
	defer scan.Stop()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	next := g.wl.NextBatch(batchTxns)
	for i := 0; i < len(due); {
		wait := due[i] - g.c.now()
		if wait <= 0 {
			g.c.offer(next, laneOf(next.ID, g.lanes), due[i])
			next = g.wl.NextBatch(batchTxns)
			i++
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-scan.C:
			g.c.reoffer()
		case <-g.stop:
			return
		}
	}
	for {
		select {
		case <-scan.C:
			g.c.reoffer()
		case <-g.stop:
			return
		}
	}
}

func (g *generator) runClosed() {
	defer g.wg.Done()
	scan := time.NewTicker(50 * time.Millisecond)
	defer scan.Stop()
	next := g.wl.NextBatch(batchTxns)
	for {
		select {
		case g.pool <- next:
			next = g.wl.NextBatch(batchTxns)
		case <-scan.C:
			g.c.reoffer()
		case <-g.stop:
			return
		}
	}
}

// issue is the closed loop's credit return: the lane gets its next batch.
func (g *generator) issue(lane int32) {
	if !g.active.Load() {
		return
	}
	select {
	case b := <-g.pool:
		g.c.offer(b, lane, g.c.now())
	case <-g.stop:
	}
}

func sleepUntil(c *client, t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// warmup is a fifth of the measure interval: 2 s at the default 10 s run.
func warmup(seconds float64) time.Duration {
	return time.Duration(seconds / 5 * float64(time.Second))
}

// runReal runs one real-time workload: set-up, warm-up, the measure
// interval, the drain, the correctness gate, two more set-ups and the
// virtual-time fault probe.
func runReal(w *workload, opt options) (*result, error) {
	res := &result{workload: w.name, metrics: make(map[string]float64)}
	lanes := w.m
	if w.dissem {
		lanes = w.n
	}
	wl := ycsb.NewWorkload(opt.seed, types.ClientIDBase, tableRecords, w.valueSize)

	// setUp builds a cluster and drives one batch through it. The first
	// cluster is the one measured; the decorators exist only in a traced run.
	setUp := func() (*client, *realCluster, *tracer, float64, error) {
		began := time.Now()
		c := newClient(lanes, (w.n-1)/3, func() time.Duration { return time.Since(began) })
		c.rotate = w.dissem
		var tr *tracer
		if opt.trace {
			tr = newTracer(c.now)
		}
		rc, err := startReal(w, c, tr)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		b := wl.NextBatch(batchTxns)
		if err := awaitFirstAck(c, rc, b, laneOf(b.ID, lanes)); err != nil {
			rc.stop()
			rc.cleanup()
			return nil, nil, nil, 0, err
		}
		return c, rc, tr, time.Since(began).Seconds(), nil
	}
	c, rc, tr, took, err := setUp()
	if err != nil {
		return nil, err
	}
	defer rc.cleanup()
	setups := []float64{took}

	warm := warmup(opt.seconds)
	measure := time.Duration(opt.seconds * float64(time.Second))
	base := c.now()
	whole := interval{base + warm, base + warm + measure}
	reference, traced := whole, whole
	if opt.trace {
		// The first 30 % of the measure interval runs with the decorators
		// silent: the reference the traced remainder is compared against.
		mid := whole.from + measure*3/10
		reference, traced = interval{whole.from, mid}, interval{mid, whole.to}
	}

	g := &generator{c: c, wl: wl, lanes: lanes, stop: make(chan struct{})}
	g.wg.Add(1)
	if w.rate > 0 {
		due := openSchedule(rand.New(rand.NewSource(opt.seed^0x6f70656e)), w.rate, warm+measure)
		for i := range due {
			due[i] += base
		}
		go g.runOpen(due)
	} else {
		g.pool = make(chan *types.Batch, 4*lanes*w.outstanding) // several credits' worth, so bursts of acknowledgements find batches ready
		g.active.Store(true)
		c.mu.Lock()
		c.refill = g.issue
		c.mu.Unlock()
		go g.runClosed()
		for l := 0; l < lanes; l++ {
			for k := 0; k < w.outstanding; k++ {
				g.issue(int32(l))
			}
		}
	}

	sleepUntil(c, whole.from)
	snaps := []snapshot{takeSnapshot(c, rc, tr, opt.trace)}
	if opt.trace {
		sleepUntil(c, traced.from)
		snaps = append(snaps, takeSnapshot(c, rc, tr, true))
		tr.enabled.Store(true)
	}
	sleepUntil(c, whole.to)
	snaps = append(snaps, takeSnapshot(c, rc, tr, opt.trace))
	if tr != nil {
		tr.enabled.Store(false)
	}
	goroutines := stdruntime.NumGoroutine()
	backlog := c.outstanding()
	if w.rate == 0 {
		backlog -= lanes * w.outstanding // the closed loop's standing credits are not a backlog
		if backlog < 0 {
			backlog = 0
		}
	}
	g.active.Store(false)
	for deadline := whole.to + failAfter; c.outstanding() > 0 && c.now() < deadline; {
		time.Sleep(5 * time.Millisecond)
	}
	close(g.stop)
	g.wg.Wait()
	rc.stop()
	res.metrics["rss_mb"] = peakRSSMB() // before the probe and the further set-ups, so it is the measured cluster's own peak

	acked, unacked, retransmits := c.results()
	measured := dueIn(acked, whole)
	res.attempted = len(measured)
	for _, o := range unacked {
		if whole.has(o.due) {
			res.attempted++
			res.failed++
		}
	}
	res.correct = true
	if err := checkReal(rc, acked); err != nil {
		res.correct, res.violation = false, err.Error()
	}

	first, last := snaps[0], snaps[len(snaps)-1]
	ktxnS, txns := throughput(acked, whole)
	lat := latenciesMs(measured)
	m := res.metrics
	m["ktxn_s"] = ktxnS
	if txns > 0 {
		m["cpu_ms_ktxn"] = ms(last.cpu-first.cpu) / (float64(txns) / 1000)
		m["egress_b_txn"] = float64(last.egress-first.egress) / float64(txns)
	}
	res.infof("ops %d failed %d retransmits %d backlog_end %d", res.attempted, res.failed, retransmits, backlog)
	if opt.trace {
		perLayerReal(res, w, rc, tr, acked, reference, traced, snaps[0], snaps[1], last)
		m["client.retransmits"] = float64(retransmits)
		m["client.backlog_end"] = float64(backlog)
		m["go.goroutines"] = float64(goroutines)
		if err := writeSpans(res, tr, opt, w, dueIn(acked, traced)); err != nil {
			return nil, err
		}
	}

	// Set-up again, for a median: what a set-up costs must not hang on one
	// sample, and a cluster built now no longer moves the peak memory above.
	rc.release()
	for k := 1; k < opt.setups(); k++ {
		debug.FreeOSMemory()
		_, again, _, took, err := setUp()
		if err != nil {
			return nil, err
		}
		again.stop()
		again.cleanup()
		setups = append(setups, took)
	}
	m["setup_s"] = median(setups)

	// The fault probe: this cluster size in virtual time, through outages.
	probe := runTrials(simProbe(w), opt.seed, opt.probeTrials(), nil)
	if probe.violation != nil && res.correct {
		res.correct, res.violation = false, "fault probe: "+probe.violation.Error()
	}
	if w.rate > 0 {
		m["p50_ms"] = median(probe.steady)
		res.infof("p50_ms: fault probe (virtual time), %d samples; wall clock was %.2f ms over %d samples, see client.p50_ms", len(probe.steady), median(lat), len(lat))
	} else {
		m["p50_ms"] = median(lat)
		res.infof("p50_ms: wall clock, %d samples", len(lat))
	}
	m["fault_p95_ms"] = quantile(probe.fault, 0.95)
	m["rejoin_ms"] = mean(probe.rejoin)
	res.infof("fault_p95_ms, rejoin_ms: fault probe (virtual time), %d batches due while down, %d restarts, %.1f s wall", len(probe.fault), len(probe.rejoin), probe.wall.Seconds())
	return res, nil
}

// runSimWorkload runs the sim-crash workload: three trials per two seconds
// of --seconds (each is 2.35 s of virtual time and 0.8 s of wall time on the
// build host), so the run takes roughly as long as a real-time one.
func runSimWorkload(w *workload, opt options) (*result, error) {
	res := &result{workload: w.name, metrics: make(map[string]float64)}
	sc := simCrash(w)
	trials := max(1, int(opt.seconds*1.5))
	run := runTrials(sc, opt.seed, trials, nil)
	res.metrics["rss_mb"] = peakRSSMB()
	res.attempted, res.failed = run.ops()
	res.correct = true
	if run.violation != nil {
		res.correct, res.violation = false, run.violation.Error()
	}

	m := res.metrics
	m["setup_s"] = median(run.setup)
	m["ktxn_s"] = median(run.perWin)
	m["p50_ms"] = median(run.steady)
	m["fault_p95_ms"] = quantile(run.fault, 0.95)
	m["rejoin_ms"] = mean(run.rejoin)
	if run.txns > 0 {
		m["cpu_ms_ktxn"] = ms(run.cpu) / (float64(run.txns) / 1000)
		m["egress_b_txn"] = float64(run.egress) / float64(run.txns)
	}
	res.infof("virtual time: %d trials of %.2f s simulated in %.1f s wall; p50_ms over %d samples, fault_p95_ms over %d, rejoin_ms over %d restarts",
		trials, sc.end.Seconds(), run.wall.Seconds(), len(run.steady), len(run.fault), len(run.rejoin))
	res.infof("ops %d failed %d", res.attempted, res.failed)

	if opt.trace {
		// The same trials again with the decorators recording. Tracing must
		// not move virtual time, so the two runs' latencies must be identical.
		tr := newTracer(nil)
		tr.enabled.Store(true)
		traced := runTrials(sc, opt.seed, trials, tr)
		if median(traced.steady) != m["p50_ms"] && res.correct {
			res.correct, res.violation = false, "the traced run's virtual-time latencies differ from the untraced run's"
		}
		perLayerSim(res, traced, tr)
		m["trace.overhead_frac"] = float64(traced.cpu)/float64(run.cpu) - 1
		// One trial's spans: every trial restarts the clock at zero.
		if err := writeSpans(res, tr, opt, w, traced.trials[0].acked); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeSpans writes the trace file and adds the per-stage summary to the
// run's human-readable output.
func writeSpans(res *result, tr *tracer, opt options, w *workload, acked []*op) error {
	path := opt.traceOut
	if path == "" {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(scratchDir, "trace-"+w.name+".jsonl")
	}
	summary, err := tr.writeTrace(path, acked)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.infof("trace: %s", path)
	for _, name := range []string{"batch", "queue", "certify", "order", "execute", "reply", "runtime.execute", "ycsb.snapshot", "wal.fsync", "wal.snapshot_write"} {
		if s, ok := summary[name]; ok {
			res.infof("span %-18s p50 %.3f ms, self p50 %.3f ms", name, s[0], s[1])
		}
	}
	return nil
}
