// Package core implements SpotLess (§3–§5 of the paper): the chained
// rotational consensus instance with Rapid View Synchronization, and the
// concurrent consensus architecture that runs m instances in parallel with a
// deterministic total order across them. On top of the paper's protocol it
// adds the checkpoint + garbage-collection + state-transfer subsystem
// (checkpoint.go): periodic signed checkpoints bound the per-view state RVS
// would otherwise retain forever, and let crashed or lagging replicas
// rejoin from the stable frontier instead of replaying pruned views. See
// docs/ARCHITECTURE.md for the paper-to-code map.
package core

import (
	"time"

	"spotless/internal/dissem"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes a SpotLess replica.
type Config struct {
	N         int // number of replicas (n > 3f)
	F         int // failure bound
	Instances int // m concurrent instances, 1 ≤ m ≤ n (§4.1)

	// InitialRecordingTimeout is the starting value of tR (state ST1: wait
	// for an acceptable proposal).
	InitialRecordingTimeout time.Duration
	// InitialCertifyTimeout is the starting value of tA (state ST3: wait
	// for n−f matching claims).
	InitialCertifyTimeout time.Duration
	// MinTimeout floors the adaptive timers (maxTimeout caps them).
	MinTimeout time.Duration
	// RetransmitInterval drives the periodic retransmission of §3.5 for
	// replicas stuck waiting on replies.
	RetransmitInterval time.Duration

	// RetentionViews bounds per-view bookkeeping kept behind the committed
	// frontier when checkpointing is disabled (older state is pruned on a
	// fixed window). With CheckpointInterval > 0 the stable checkpoint
	// frontier drives garbage collection instead.
	RetentionViews int
	// CheckpointInterval enables the checkpoint + garbage-collection +
	// state-transfer subsystem: every K globally delivered batches the
	// replica broadcasts a signed checkpoint attestation; n−f matching
	// attestations make the checkpoint stable, after which state at or
	// below the stable frontier is dropped and lagging replicas recover via
	// FetchState/StateChunk instead of per-view Asks. 0 disables the
	// subsystem (the seed behaviour). All replicas must agree on K.
	CheckpointInterval int
	// CheckpointFetchCap bounds the ledger blocks carried per StateChunk
	// (default 512). Blocks beyond the cap are not re-fetched: the
	// requester rebuilds them through ordinary consensus re-delivery, which
	// GC keeps possible above the stable frontier.
	CheckpointFetchCap int
	// Host integrates the execution layer's durable state with the
	// checkpoint subsystem (ledger truncation, block serving, state
	// install). Optional: nil models a substrate without durable state
	// (e.g. the simulator), where checkpoints cover protocol state only.
	Host StateHost
	// Resume rehydrates the replica from a locally persisted stable
	// checkpoint (the WAL restart path): the delivery frontier, execution
	// hash, anchors, and stable certificate are adopted at construction, and
	// every instance re-enters the rotation from its anchor at Start — so a
	// restarted replica needs only the missing suffix from the network, not
	// a full state transfer. Callers validate it first (VerifyResume);
	// nil starts from genesis. Requires CheckpointInterval > 0.
	Resume *ResumeState

	// IdleBackoff paces view entry when the cluster is idle: a primary whose
	// NextBatch comes back empty delays its proposal by up to IdleBackoff
	// (re-checking on a TimerPropose timer, and proposing immediately if a
	// batch arrived in the meantime) instead of issuing the §5 no-op filler
	// at once. Without pacing, TCP/runtime deployments burn thousands of
	// no-op views per second while idle, saturating small hosts and starving
	// real-batch commits after a crash (ROADMAP PR 2 discovery). 0 disables
	// pacing — the simulator's figures rely on unpaced views, and loaded
	// clusters are unaffected either way since a pending batch always
	// proposes immediately. Keep IdleBackoff below the recording timeout tR,
	// or backups will claim(∅) before the paced proposal arrives.
	IdleBackoff time.Duration

	// Pacemaker builds the view-synchronizer of each instance shard. nil
	// runs "spotless", the paper's §3.5 adaptive timers; PacemakerByName
	// resolves the bake-off arms ("relay", Cogsworth-style linear
	// escalation; "doubling", Lumiere-style exponential backoff), and tests
	// inject fixed-policy or instrumented pacemakers. See pacemaker.go and
	// the bench.RunSoak bake-off.
	Pacemaker PacemakerFactory

	// UnsafeLegacyResolution restores the seed's view-resolution rules —
	// bare A3 (any conditionally prepared parent above the lock unlocks),
	// the unknown-claim echo, the tip-only commit quorum, and the
	// conditionally-committed lock raise — which together admit the
	// fork-commit path the Lemma 3.4 re-derivation closes (resolution.go):
	// one replica can commit a real-batch proposal at a view another
	// replica resolves as ∅, diverging the ledgers. UNSAFE; retained
	// solely as the deterministic safety drill's negative control
	// (bench.RunSafetyDrill, TestLegacyA3ForksLedger) so the closed
	// deviation stays demonstrable. Never set it in a deployment.
	UnsafeLegacyResolution bool

	// Dissem enables digest ordering: proposals reference batch digests
	// disseminated ahead of consensus by the given layer (internal/dissem)
	// instead of inlining payloads, so consensus traffic stays constant-size
	// as batches grow. The replica binds the layer at construction, gates
	// claims on the availability certificate (an uncertified digest can
	// never be claimed, and therefore never commits), and resolves digests
	// back to payloads at delivery. nil keeps the seed's inline-payload
	// ordering. The layer must be freshly constructed per replica.
	Dissem *dissem.Layer

	// FastPath enables the geo-scale optimization of §6.1: the primary of
	// view v+1 broadcasts its proposal optimistically as soon as it accepts
	// the view-v proposal, without waiting for the 2f+1 votes. Acceptance
	// rule A1 still gates voting at the backups, so safety is unaffected;
	// the optimistic proposal overlaps one WAN round trip.
	FastPath bool

	// Behavior configures Byzantine behaviour for evaluation (§6.3).
	Behavior Behavior
}

// StateHost is the execution-layer integration surface of the checkpoint
// subsystem. The runtime's replica executor implements it over the
// blockchain ledger; substrates without durable state leave Config.Host nil.
// All methods are invoked on the replica's ordering stage — the single
// event loop when instance workers are disabled — and therefore never race
// Context.Deliver, which the ordering stage also owns.
type StateHost interface {
	// StateDigest returns the digest of the durable state after height
	// delivered batches (the ledger's chain-resume hash); it is folded into
	// the checkpoint attestation so divergent execution is detected at
	// checkpoint time. The rolling execution hash at the cut is passed along
	// so the host can capture an execution snapshot bound to the exact
	// (height, execHash) pair the attestation will cover — the table content
	// at this instant is precisely the first `height` delivered batches.
	StateDigest(height uint64, execHash types.Digest) types.Digest
	// TruncateBelow garbage-collects durable state below the stable height.
	TruncateBelow(height uint64)
	// FetchBlocks returns up to max retained ledger blocks from the given
	// height, serving state-transfer chunks.
	FetchBlocks(from uint64, max int) []types.BlockRecord
	// Head reports the retained chain head: the next height the ledger
	// would append and the hash it chains from. Sent with FetchState so a
	// server can serve only the suffix the requester is missing.
	Head() (uint64, types.Digest)
	// BlockHash returns the hash of the retained block at the given height
	// (ok=false when pruned or beyond the head). A state-transfer server
	// uses it to check that a requester's claimed head lies on this chain
	// before serving a suffix instead of the full retained segment.
	BlockHash(height uint64) (types.Digest, bool)
	// InstallState adopts a verified stable checkpoint on a lagging
	// replica: re-root (or extend — see the runtime executor's keep-chain
	// and suffix paths) the ledger at the certificate height using the
	// chunk's chain-resume hash and ingest the transferred blocks.
	InstallState(chunk *types.StateChunk) error
	// PersistCheckpoint records stable-checkpoint metadata in durable
	// storage (the WAL manifest) so a restarted replica can resume from it.
	// Called on every stabilization; a host without durable storage may
	// no-op. The host also promotes its pending execution snapshot for
	// cert.Height (captured at StateDigest time) to stable here, persisting
	// it after the manifest so recovery never finds a snapshot the manifest
	// cannot vouch for.
	PersistCheckpoint(cert types.CheckpointCert, execHash, resume types.Digest, anchors []types.Anchor)
	// StateSnapshot returns the execution snapshot captured at the stable
	// checkpoint height (the ycsb envelope bytes), or nil if none is
	// retained. Served inside StateChunk replies when the requester set
	// WantSnapshot, so a far-behind rejoiner installs the attested table
	// instead of replaying from genesis.
	StateSnapshot(height uint64) []byte
}

// DefaultConfig returns a configuration for n replicas with m instances.
func DefaultConfig(n, m int) Config {
	return Config{
		N:                       n,
		F:                       (n - 1) / 3,
		Instances:               m,
		InitialRecordingTimeout: 40 * time.Millisecond,
		InitialCertifyTimeout:   40 * time.Millisecond,
		MinTimeout:              2 * time.Millisecond,
		RetransmitInterval:      120 * time.Millisecond,
		RetentionViews:          256,
	}
}

// Fixed protocol parameters. Each was a Config field that no deployment,
// drill or benchmark ever set to a second value.
const (
	// epsilon is the additive timeout increase applied after consecutive
	// timeouts of the same timer in consecutive views (§3.5).
	epsilon = 5 * time.Millisecond
	// maxTimeout caps the adaptive timers (Config.MinTimeout floors them).
	maxTimeout = 4 * time.Second
	// pendingWindow bounds how far ahead of the current view proposals are
	// buffered (flooding guard); Syncs get four times the slack.
	pendingWindow = 64
	// catchupWindow caps how many skipped views receive explicit
	// Sync(u, claim(∅), CP, Υ) catch-up messages in one jump, and how many
	// ancestors one Ask answer carries.
	catchupWindow = 32
)

// AttackMode aliases the shared attack taxonomy of the evaluation (§6.3,
// Figure 11); see internal/protocol.
type AttackMode = protocol.AttackMode

// Attack modes re-exported for API convenience.
const (
	AttackNone       = protocol.AttackNone
	AttackDark       = protocol.AttackDark
	AttackEquivocate = protocol.AttackEquivocate
	AttackSubvert    = protocol.AttackSubvert
)

// Behavior aliases the shared Byzantine-behaviour configuration.
type Behavior = protocol.Behavior

// PrimaryOf returns the primary of instance i in view v:
// id(P_{i,v}) = (i + v) mod n (§4.1, Figure 5).
func PrimaryOf(instance int32, v types.View, n int) types.NodeID {
	return types.NodeID((uint64(instance) + uint64(v)) % uint64(n))
}
