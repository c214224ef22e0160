package runtime_test

import (
	"sync/atomic"
	"testing"
	"time"

	"spotless/internal/core"
	"spotless/internal/runtime"
	"spotless/internal/types"
)

// maxView returns the highest instance-0 view any replica reached. Read
// after Stop (the event loops have quiesced) so the access is ordered.
func maxView(cl *runtime.Cluster) types.View {
	var v types.View
	for _, r := range cl.Replicas {
		if w := r.Instance(0).CurrentView(); w > v {
			v = w
		}
	}
	return v
}

// probePacemaker pins the pacing policy for the idle test: the recording
// timeout is fixed at 4× the backoff and every idle consultation returns
// exactly the backoff, so a paced view provably costs ≥ the backoff on
// any host — no adaptive-timer walk to calibrate around (the PR 4 race-job
// flake came from the spotless arm halving tR to the MinTimeout floor and
// shrinking the tR/2 pacing cap under the configured backoff). The
// engagement counter proves the paced path actually ran instead of
// inferring it from wall-clock view rates.
type probePacemaker struct {
	backoff time.Duration
	paces   *atomic.Int64
}

func (p *probePacemaker) EnterView(types.View) time.Duration         { return 4 * p.backoff }
func (p *probePacemaker) EnterCertify(types.View) time.Duration      { return 4 * p.backoff }
func (p *probePacemaker) ProposalAccepted(types.View, time.Duration) {}
func (p *probePacemaker) ViewCertified(types.View, time.Duration)    {}
func (p *probePacemaker) RecordingExpired(types.View)                {}
func (p *probePacemaker) CertifyExpired(types.View)                  {}
func (p *probePacemaker) Timeouts() (time.Duration, time.Duration) {
	return 4 * p.backoff, 4 * p.backoff
}
func (p *probePacemaker) IdleDelay(types.View) time.Duration {
	p.paces.Add(1)
	return p.backoff
}

// TestIdleBackoffPacesNoopViews (ROADMAP PR 2 discovery): an idle cluster
// without pacing burns views as fast as the no-op round trips complete —
// thousands per second on loopback — while with IdleBackoff every view
// entry waits for a batch before the no-op filler goes out. With the
// policy pinned through the Pacemaker interface, every paced view costs
// at least the backoff by construction, so the view ceiling holds on any
// host without the unpaced control run or its load-dependent self-skip.
// A loaded cluster must keep committing unaffected.
func TestIdleBackoffPacesNoopViews(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	const spin = 2 * time.Second
	const backoff = 25 * time.Millisecond
	var paces atomic.Int64
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, IdleBackoff: backoff, // no Source: permanently idle
		Tune: func(_ int, cfg *core.Config) {
			cfg.Pacemaker = func(int32, core.Config) core.Pacemaker {
				return &probePacemaker{backoff: backoff, paces: &paces}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(spin)
	cl.Stop()
	paced := maxView(cl)
	t.Logf("idle views after %v: paced=%d engagements=%d", spin, paced, paces.Load())
	if paces.Load() == 0 {
		t.Fatal("idle primaries never consulted the pacemaker's idle hook — the paced path did not run")
	}
	// A paced view costs ≥ 25 ms by construction, so 2 s admits ≤ 80 views;
	// allow 2× for entry jitter.
	if paced > types.View(2*spin/backoff) {
		t.Errorf("paced idle cluster reached view %d, want ≤ %d", paced, 2*spin/backoff)
	}
	// Liveness sanity: pacing slows the idle spin, it must not stall it.
	if paced < 4 {
		t.Errorf("paced idle cluster only reached view %d — pacing stalled view entry", paced)
	}

	// Loaded cluster with pacing enabled: batches keep proposing immediately
	// (NextBatch non-empty skips the backoff), so commits are unaffected.
	src := newQueueSource(1, 50, 5)
	done := make(chan struct{}, 128)
	cl, err = runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src, IdleBackoff: 25 * time.Millisecond,
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	deadline := time.After(20 * time.Second)
	for completed := 0; completed < 10; {
		select {
		case <-done:
			completed++
		case <-deadline:
			t.Fatalf("loaded paced cluster completed only %d batches before deadline", completed)
		}
	}
}
