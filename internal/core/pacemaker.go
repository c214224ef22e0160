package core

import (
	"fmt"
	"time"

	"spotless/internal/types"
)

// Pacemaker is the view-synchronizer policy extracted from the instance
// state machine: it decides how long each RVS state waits (the tR/tA
// timers of §3.5) and how an idle primary paces its proposal, while the
// instance keeps the mechanics (arming timers, claiming ∅ on expiry,
// entering views). The split exists so the paper's adaptive synchronizer
// can be compared against alternatives — Cogsworth-style relay and
// Lumiere-style doubling (PAPERS.md) — under the same resolution machine
// and the same soak harness (bench.RunSoak), without any arm being able to
// touch safety-critical state.
//
// Every method runs on the owning instance's shard; implementations need no
// locking. Durations handed back are armed verbatim by the instance, so an
// implementation must respect Config.MinTimeout and maxTimeout itself (the
// contract test suite pins this, along with the invariants the PR 3/PR 5
// guards depend on: timers re-arm after every fire, paced proposals stay
// inside the recording window, view entry is monotone).
type Pacemaker interface {
	// EnterView yields the recording timeout tR to arm when the instance
	// enters view v (state ST1: waiting for an acceptable proposal).
	EnterView(v types.View) time.Duration
	// EnterCertify yields the certify timeout tA to arm on the ST2 → ST3
	// transition (waiting for n−f matching claims).
	EnterCertify(v types.View) time.Duration
	// ProposalAccepted reports progress: the awaited view-v proposal was
	// accepted `waited` after view entry.
	ProposalAccepted(v types.View, waited time.Duration)
	// ViewCertified reports progress: view v resolved with a claim quorum
	// `waited` after the certify timer was armed.
	ViewCertified(v types.View, waited time.Duration)
	// RecordingExpired reports the recording timer firing in view v (the
	// instance claims ∅ and moves to ST2).
	RecordingExpired(v types.View)
	// CertifyExpired reports the certify timer firing in view v (the
	// instance abandons the view).
	CertifyExpired(v types.View)
	// IdleDelay yields the pacing delay for a primary with no client batch
	// in view v: 0 proposes the no-op filler immediately, a positive delay
	// re-checks the queue on a TimerPropose. The delay must stay at or
	// below half the armed recording timeout, or backups claim(∅) before
	// the paced proposal lands (see propose).
	IdleDelay(v types.View) time.Duration
	// Timeouts exposes the current (tR, tA) pair for metrics and tests.
	Timeouts() (tR, tA time.Duration)
}

// PacemakerFactory builds one Pacemaker per instance shard.
type PacemakerFactory func(instance int32, cfg Config) Pacemaker

// PacemakerArms lists the built-in bake-off arms in display order.
var PacemakerArms = []string{"spotless", "relay", "doubling"}

// PacemakerByName resolves a bake-off arm by name ("" selects the paper's
// adaptive synchronizer).
func PacemakerByName(name string) (PacemakerFactory, error) {
	switch name {
	case "", "spotless":
		return func(_ int32, cfg Config) Pacemaker { return newSpotlessPacemaker(cfg) }, nil
	case "relay":
		return func(_ int32, cfg Config) Pacemaker { return newRelayPacemaker(cfg) }, nil
	case "doubling":
		return func(_ int32, cfg Config) Pacemaker { return newDoublingPacemaker(cfg) }, nil
	}
	return nil, fmt.Errorf("unknown pacemaker %q (have %v)", name, PacemakerArms)
}

// newPacemaker builds the configured arm for one instance (nil: spotless).
func (r *Replica) newPacemaker(instance int32) Pacemaker {
	if r.cfg.Pacemaker != nil {
		return r.cfg.Pacemaker(instance, r.cfg)
	}
	return newSpotlessPacemaker(r.cfg)
}

// idlePacing caps the configured idle backoff at half the current recording
// timeout: the adaptive timers can shrink below the configured backoff, and
// a wait outliving tR would let every backup claim(∅) before the paced
// proposal goes out. All arms share the cap — it is a liveness envelope,
// not a policy choice.
func idlePacing(cfg Config, tR time.Duration) time.Duration {
	d := cfg.IdleBackoff
	if d <= 0 {
		return 0
	}
	if tR/2 < d {
		d = tR / 2
	}
	return d
}

// ---------------------------------------------------------------------------
// spotless: the paper's adaptive synchronizer (§3.5)
// ---------------------------------------------------------------------------

// spotlessPacemaker reproduces the instance's original welded-in logic
// bit-for-bit: halve a timer when the awaited event arrives within half the
// timeout, add ε after timeouts in consecutive views, clamp to
// [MinTimeout, maxTimeout].
type spotlessPacemaker struct {
	cfg    Config
	tR, tA time.Duration
	// Sentinels: a first timeout at view 1 is not "consecutive".
	lastExpiredR types.View
	lastExpiredA types.View
}

func newSpotlessPacemaker(cfg Config) *spotlessPacemaker {
	return &spotlessPacemaker{
		cfg:          cfg,
		tR:           cfg.InitialRecordingTimeout,
		tA:           cfg.InitialCertifyTimeout,
		lastExpiredR: ^types.View(0) - 1,
		lastExpiredA: ^types.View(0) - 1,
	}
}

func (p *spotlessPacemaker) EnterView(types.View) time.Duration    { return p.tR }
func (p *spotlessPacemaker) EnterCertify(types.View) time.Duration { return p.tA }

func (p *spotlessPacemaker) ProposalAccepted(_ types.View, waited time.Duration) {
	// Halve tR when the awaited proposal arrived within half the timeout.
	if waited < p.tR/2 {
		p.tR = clampTimeout(p.tR/2, p.cfg)
	}
}

func (p *spotlessPacemaker) ViewCertified(_ types.View, waited time.Duration) {
	if waited < p.tA/2 {
		p.tA = clampTimeout(p.tA/2, p.cfg)
	}
}

func (p *spotlessPacemaker) RecordingExpired(v types.View) {
	if p.lastExpiredR+1 == v {
		p.tR = clampTimeout(p.tR+epsilon, p.cfg)
	}
	p.lastExpiredR = v
}

func (p *spotlessPacemaker) CertifyExpired(v types.View) {
	if p.lastExpiredA+1 == v {
		p.tA = clampTimeout(p.tA+epsilon, p.cfg)
	}
	p.lastExpiredA = v
}

func (p *spotlessPacemaker) IdleDelay(types.View) time.Duration {
	return idlePacing(p.cfg, p.tR)
}

func (p *spotlessPacemaker) Timeouts() (time.Duration, time.Duration) { return p.tR, p.tA }

// ---------------------------------------------------------------------------
// relay: Cogsworth-style linear escalation
// ---------------------------------------------------------------------------

// relayPacemaker models Cogsworth's pacemaker shape (PAPERS.md): instead of
// growing timeouts geometrically, Cogsworth relays view-change traffic
// through successive leaders and keeps the base timeout flat, escalating
// only linearly while a view genuinely fails to form. SpotLess's Sync
// retransmission heartbeat plays the relay role here, so the arm reduces to
// the timeout policy: tR = base + k·ε after k consecutive expiries, reset
// to base on any progress. Recovers instantly after isolated glitches but
// ramps slowly under long asynchrony.
type relayPacemaker struct {
	cfg            Config
	tR, tA         time.Duration
	failsR, failsA int
}

func newRelayPacemaker(cfg Config) *relayPacemaker {
	return &relayPacemaker{
		cfg: cfg,
		tR:  cfg.InitialRecordingTimeout,
		tA:  cfg.InitialCertifyTimeout,
	}
}

func (p *relayPacemaker) EnterView(types.View) time.Duration    { return p.tR }
func (p *relayPacemaker) EnterCertify(types.View) time.Duration { return p.tA }

func (p *relayPacemaker) ProposalAccepted(types.View, time.Duration) {
	p.failsR = 0
	p.tR = clampTimeout(p.cfg.InitialRecordingTimeout, p.cfg)
}

func (p *relayPacemaker) ViewCertified(types.View, time.Duration) {
	p.failsA = 0
	p.tA = clampTimeout(p.cfg.InitialCertifyTimeout, p.cfg)
}

func (p *relayPacemaker) RecordingExpired(types.View) {
	p.failsR++
	p.tR = clampTimeout(p.cfg.InitialRecordingTimeout+time.Duration(p.failsR)*epsilon, p.cfg)
}

func (p *relayPacemaker) CertifyExpired(types.View) {
	p.failsA++
	p.tA = clampTimeout(p.cfg.InitialCertifyTimeout+time.Duration(p.failsA)*epsilon, p.cfg)
}

func (p *relayPacemaker) IdleDelay(types.View) time.Duration {
	return idlePacing(p.cfg, p.tR)
}

func (p *relayPacemaker) Timeouts() (time.Duration, time.Duration) { return p.tR, p.tA }

// ---------------------------------------------------------------------------
// doubling: Lumiere-style exponential backoff
// ---------------------------------------------------------------------------

// doublingPacemaker models the Lumiere/classic-BFT view-doubling shape
// (PAPERS.md): every expiry doubles the timer (clamped at maxTimeout),
// any progress snaps it back to the initial value. Reaches a
// GST-compatible timeout in O(log Δ) failed views — faster than relay
// under long asynchrony — but over-waits after isolated glitches and
// never adapts below the configured initial value on fast networks.
type doublingPacemaker struct {
	cfg    Config
	tR, tA time.Duration
}

func newDoublingPacemaker(cfg Config) *doublingPacemaker {
	return &doublingPacemaker{
		cfg: cfg,
		tR:  cfg.InitialRecordingTimeout,
		tA:  cfg.InitialCertifyTimeout,
	}
}

func (p *doublingPacemaker) EnterView(types.View) time.Duration    { return p.tR }
func (p *doublingPacemaker) EnterCertify(types.View) time.Duration { return p.tA }

func (p *doublingPacemaker) ProposalAccepted(types.View, time.Duration) {
	p.tR = clampTimeout(p.cfg.InitialRecordingTimeout, p.cfg)
}

func (p *doublingPacemaker) ViewCertified(types.View, time.Duration) {
	p.tA = clampTimeout(p.cfg.InitialCertifyTimeout, p.cfg)
}

func (p *doublingPacemaker) RecordingExpired(types.View) {
	p.tR = clampTimeout(2*p.tR, p.cfg)
}

func (p *doublingPacemaker) CertifyExpired(types.View) {
	p.tA = clampTimeout(2*p.tA, p.cfg)
}

func (p *doublingPacemaker) IdleDelay(types.View) time.Duration {
	return idlePacing(p.cfg, p.tR)
}

func (p *doublingPacemaker) Timeouts() (time.Duration, time.Duration) { return p.tR, p.tA }
