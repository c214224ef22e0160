// Package spotless is a from-scratch Go reproduction of "SpotLess:
// Concurrent Rotational Consensus Made Practical through Rapid View
// Synchronization" (Kang, Rahnama, Hellings, Sadoghi — ICDE 2024).
//
// SpotLess is a Byzantine fault-tolerant consensus protocol that combines a
// chained rotational design (the primary changes every view; recovery needs
// information about a single round only) with Rapid View Synchronization —
// an always-on, low-cost view-synchronization and state-recovery path that
// replaces the classic view-change protocol — and a concurrent consensus
// architecture running m ≤ n chained instances in parallel.
//
// # Layout
//
// The stack is layered: shared vocabulary (internal/types) and cryptography
// (internal/crypto) at the bottom; the substrate-neutral protocol
// environment (internal/protocol) in the middle; three interchangeable
// substrates above it (internal/simnet, internal/runtime,
// internal/transport); and the five consensus protocols on top
// (internal/core is SpotLess; internal/pbft, internal/rcc,
// internal/hotstuff, internal/narwhal are the §6.2 baselines).
// internal/ycsb and internal/ledger provide execution and provenance;
// internal/bench and internal/loadgen reconstruct the paper's evaluation.
// The full layer diagram and a mechanism-by-mechanism paper-to-code map
// live in docs/ARCHITECTURE.md.
//
// # Verification pipeline
//
// Protocol state machines are serialized per shard and never verify
// signatures inline: protocols declare signature work up front
// (protocol.IngressVerifier) and substrates run the checks off the event
// loop, so state machines consume only pre-verified messages.
// State-dependent checks (SpotLess's lazily verified certificates, §3.4)
// go through Context.VerifyAsync under the stale-tag discipline documented
// in internal/protocol.
//
// # Instance-parallel core
//
// The SpotLess replica implements protocol.ShardedProtocol: each of its m
// concurrent consensus instances is an independent shard, and the
// cross-instance total order, batch dedup, checkpointing, and execution
// live on one serialized ordering stage. Substrates configured with
// instance workers (runtime.NodeConfig.Workers, the -instance-workers
// flag, simnet.Config.InstanceWorkers) dispatch the shards concurrently —
// per-instance mailboxes and goroutines on the runtime, per-lane modelled
// cores on the simulator; the default remains the classic single event
// loop. The threading model is documented in docs/ARCHITECTURE.md.
//
// # Safe view resolution
//
// The commit rule follows the paper's Lemma 3.4 quorum-intersection
// argument, re-derived in internal/core/resolution.go: each view advances
// through an explicit resolution state machine (proposed → claimed →
// resolved{batch|∅} → committed), a proposal is certified by n−f claims in
// its own view, locks rise only to parents of certified proposals, rule A3
// unlocks only over a certified parent, and a proposal commits only when
// all three links of its consecutive view triple are certified. Resolving
// a view as ∅ demands a full n−f ∅-claim quorum — the intersection
// evidence that no conflicting tip can certify in that view. The seeded
// adversary drill (internal/simnet/adversary.go, spotless-bench -run
// safety) replays targeted message schedules deterministically and
// checks ledgers block-for-block; core.Config.UnsafeLegacyResolution
// retains the pre-derivation rules solely as the drill's negative control.
//
// # Checkpointing and state transfer
//
// Every K delivered batches replicas exchange signed checkpoints; n−f
// matching attestations form a stable frontier behind which consensus
// state and ledger blocks are garbage-collected, and a replica that
// crashed or fell behind the frontier rejoins by fetching the stable
// checkpoint (types.FetchState / types.StateChunk) instead of replaying
// pruned views. See internal/core/checkpoint.go and docs/ARCHITECTURE.md.
//
// # Entry points
//
// Cluster (this package) embeds a ready-to-use in-process deployment;
// cmd/spotless-replica and cmd/spotless-client deploy over TCP;
// cmd/spotless-bench regenerates every figure and runs the seeded drills
// (-run <id>); the examples directory walks
// through typical uses. See README.md and docs/ARCHITECTURE.md.
package spotless
