package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"spotless/internal/types"
)

// This file grows the seeded adversary into a soak/chaos subsystem: named
// long-running fault profiles — churning partitions, gray failures that
// drop a fraction of one replica's links, clock/timer skew — compiled from
// a seed into an explicit episode plan and installed as Schedule'd hooks.
// The plan is returned to the harness, so per-fault instrumentation
// (time-to-resync, commits-lost-per-fault; see bench.RunSoak) measures
// against the exact fault windows the simulation will execute: the same
// (profile, seed) pair replays the same chaos bit-for-bit on any host.

// Chaos profile names (see ChaosProfiles).
const (
	// ProfilePartitions churns minority partitions: up to f replicas are
	// repeatedly cut off from the rest and healed.
	ProfilePartitions = "partitions"
	// ProfileGray injects gray failures: one replica keeps a fraction of
	// its links silently dropping a fraction of messages — alive enough to
	// count toward quorums, broken enough to stall them.
	ProfileGray = "gray"
	// ProfileSkew drifts one replica's timer clock by ±25–75%, making it
	// under- or over-react to stalls relative to the rest of the cluster.
	ProfileSkew = "skew"
	// ProfileMixed rotates among the three fault kinds episode by episode.
	ProfileMixed = "mixed"
	// ProfileCrash kill-9s one replica per episode — it goes fully dark at
	// the fault (all in-memory consensus state lost) and is rebuilt at the
	// heal through ChaosConfig.Restart, rejoining via state transfer.
	ProfileCrash = "crash"
)

// ChaosProfiles lists the built-in soak profiles in display order. Crash is
// listed last: ProfileMixed draws episode kinds from the first three, so
// appending keeps every existing (profile, seed) plan bit-identical.
var ChaosProfiles = []string{ProfilePartitions, ProfileGray, ProfileSkew, ProfileMixed, ProfileCrash}

// ChaosConfig parameterizes one seeded chaos plan.
type ChaosConfig struct {
	Profile string
	Seed    int64
	N       int // replica count (victims are drawn from [0, N))
	// Fault episodes are planned inside [Start, End): the first fault
	// lands at or after Start, every heal lands before End, so the run
	// tail past End measures the last resync.
	Start, End time.Duration
	// Restart rebuilds a crashed replica at a crash episode's heal point —
	// required by ProfileCrash, which otherwise fails InstallChaos. The
	// callback runs inside the simulation loop and should call
	// Simulation.Restart with the same protocol constructor used at setup
	// (the amnesiac-rejoin model: all in-memory state lost, recovery through
	// state transfer).
	Restart func(types.NodeID)
}

// meanFault and meanGap are the average episode length and inter-episode
// gap; each is jittered ±50% per episode.
const (
	meanFault = 120 * time.Millisecond
	meanGap   = 150 * time.Millisecond
)

// FaultRecord is one planned fault episode: the harness measures
// time-to-resync from Heal and commit loss across [At, Heal].
type FaultRecord struct {
	Kind    string
	Victims []types.NodeID
	At      time.Duration
	Heal    time.Duration
}

// InstallChaos compiles the seeded episode plan for cfg and schedules its
// inject/heal hooks on the simulation. Call once, before Run; the returned
// plan is sorted by At and never mutated afterwards.
func (s *Simulation) InstallChaos(cfg ChaosConfig) ([]FaultRecord, error) {
	valid := false
	for _, p := range ChaosProfiles {
		if p == cfg.Profile {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("unknown chaos profile %q (have %v)", cfg.Profile, ChaosProfiles)
	}
	if cfg.Profile == ProfileCrash && cfg.Restart == nil {
		return nil, fmt.Errorf("chaos profile %q requires a Restart callback", ProfileCrash)
	}
	if cfg.N <= 0 {
		cfg.N = s.cfg.N
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := (cfg.N - 1) / 3

	var plan []FaultRecord
	kind := cfg.Profile
	at := cfg.Start + jitter(rng, meanGap)/2
	for {
		dur := jitter(rng, meanFault)
		if at+dur >= cfg.End {
			break
		}
		if cfg.Profile == ProfileMixed {
			kind = ChaosProfiles[rng.Intn(3)]
		}
		rec := FaultRecord{Kind: kind, At: at, Heal: at + dur}
		switch kind {
		case ProfilePartitions:
			k := 1
			if f > 1 {
				k += rng.Intn(f)
			}
			rec.Victims = pickVictims(rng, cfg.N, k)
			s.schedulePartition(rec.Victims, cfg.N, rec.At, rec.Heal)
		case ProfileGray:
			rec.Victims = pickVictims(rng, cfg.N, 1)
			s.scheduleGray(rng, rec.Victims[0], cfg.N, rec.At, rec.Heal)
		case ProfileSkew:
			rec.Victims = pickVictims(rng, cfg.N, 1)
			skew := 0.25 + 0.5*rng.Float64()
			if rng.Intn(2) == 0 {
				skew = -skew
			}
			s.scheduleSkew(rec.Victims[0], skew, rec.At, rec.Heal)
		case ProfileCrash:
			rec.Victims = pickVictims(rng, cfg.N, 1)
			s.scheduleCrash(rec.Victims[0], cfg.Restart, rec.At, rec.Heal)
		}
		plan = append(plan, rec)
		at = rec.Heal + jitter(rng, meanGap)
	}
	return plan, nil
}

// jitter draws a duration uniformly from [0.5·mean, 1.5·mean).
func jitter(rng *rand.Rand, mean time.Duration) time.Duration {
	return mean/2 + time.Duration(rng.Int63n(int64(mean)))
}

// pickVictims draws k distinct replica ids.
func pickVictims(rng *rand.Rand, n, k int) []types.NodeID {
	perm := rng.Perm(n)
	v := make([]types.NodeID, k)
	for i := range v {
		v[i] = types.NodeID(perm[i])
	}
	return v
}

// schedulePartition cuts every link between the victim set and the rest
// (both directions) at `at` and restores them at `heal`. Victims stay
// connected to each other — a genuine two-component partition.
func (s *Simulation) schedulePartition(victims []types.NodeID, n int, at, heal time.Duration) {
	inSet := make(map[types.NodeID]bool, len(victims))
	for _, v := range victims {
		inSet[v] = true
	}
	set := func(blocked bool) {
		for _, v := range victims {
			for o := 0; o < n; o++ {
				if oid := types.NodeID(o); !inSet[oid] {
					s.BlockLink(v, oid, blocked)
					s.BlockLink(oid, v, blocked)
				}
			}
		}
	}
	s.Schedule(at, func() { set(true) })
	s.Schedule(heal, func() { set(false) })
}

// scheduleGray installs probabilistic drop rules on a random non-empty
// subset of the victim's links (each affected link drops a fraction
// p ∈ [0.3, 0.9) of messages, both directions) and uninstalls them at heal.
// The victim stays partially reachable — the classic gray failure that
// never trips a liveness alarm outright.
func (s *Simulation) scheduleGray(rng *rand.Rand, victim types.NodeID, n int, at, heal time.Duration) {
	if s.adv == nil {
		s.adv = NewAdversary(rng.Int63())
	}
	p := 0.3 + 0.6*rng.Float64()
	var peers []int
	for o := 0; o < n; o++ {
		if types.NodeID(o) != victim && rng.Intn(2) == 0 {
			peers = append(peers, o)
		}
	}
	if len(peers) == 0 {
		peers = append(peers, (int(victim)+1)%n)
	}
	var rules []AdvRule
	for _, o := range peers {
		rules = append(rules,
			AdvRule{From: int(victim), To: o, Instance: -1, Drop: true, Prob: p},
			AdvRule{From: o, To: int(victim), Instance: -1, Drop: true, Prob: p})
	}
	var tokens []uint64
	s.Schedule(at, func() {
		for _, r := range rules {
			tokens = append(tokens, s.adv.Install(r))
		}
	})
	s.Schedule(heal, func() {
		for _, t := range tokens {
			s.adv.Uninstall(t)
		}
	})
}

// scheduleCrash kill-9s the victim at `at` (fully dark: drops all input,
// produces nothing, loses every pending timer when rebuilt) and hands it to
// the harness's Restart callback at `heal` — the amnesiac-rejoin model,
// where recovery runs through the protocol's own state-transfer path.
func (s *Simulation) scheduleCrash(victim types.NodeID, restart func(types.NodeID), at, heal time.Duration) {
	s.Schedule(at, func() { s.SetDown(victim, true) })
	s.Schedule(heal, func() { restart(victim) })
}

// scheduleSkew drifts the victim's timer clock by the given factor over
// [at, heal).
func (s *Simulation) scheduleSkew(victim types.NodeID, skew float64, at, heal time.Duration) {
	s.Schedule(at, func() { s.SetTimerSkew(victim, skew) })
	s.Schedule(heal, func() { s.SetTimerSkew(victim, 0) })
}
