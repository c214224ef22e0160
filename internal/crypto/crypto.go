// Package crypto provides the authentication substrate of §2: message
// digests, message authentication codes (MACs) for non-forwarded messages,
// and digital signatures (DSs) for forwarded ones.
//
// Two providers implement the same Provider interface:
//
//   - Ed25519Provider — real cryptography (SHA-256, HMAC-SHA256, ed25519)
//     for the in-process runtime, the TCP transport, and the examples.
//   - SimProvider — constant-time tags plus a calibrated CPU cost model for
//     the discrete-event simulator, where cryptographic cost (not secrecy)
//     is what shapes the evaluation (e.g. Narwhal-HS being CPU-bound on
//     signature verification, §6.4).
//
// Key distribution is a deployment concern the paper assumes away; both
// providers derive per-replica keys deterministically from a cluster secret,
// standing in for the usual PKI (documented in docs/ARCHITECTURE.md).
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"spotless/internal/types"
)

// Digest hashes a byte string with the cluster hash function (SHA-256).
func Digest(b []byte) types.Digest { return sha256.Sum256(b) }

// Errors returned by verification.
var (
	ErrBadSignature = errors.New("crypto: invalid signature")
	ErrBadMAC       = errors.New("crypto: invalid MAC")
	ErrUnknownNode  = errors.New("crypto: unknown node")
)

// Provider is the per-node cryptographic interface used by all protocols.
// Sign/Verify are digital signatures (forwardable); MAC/VerifyMAC are
// pairwise message authentication codes (cheaper, non-forwardable).
type Provider interface {
	// ID returns the node this provider signs for.
	ID() types.NodeID
	// Sign produces a digital signature by this node over msg.
	Sign(msg []byte) types.Signature
	// Verify checks a digital signature allegedly from signer over msg.
	Verify(sig types.Signature, msg []byte) error
	// MAC authenticates msg for the given receiver.
	MAC(to types.NodeID, msg []byte) []byte
	// VerifyMAC checks a MAC from the given sender over msg.
	VerifyMAC(from types.NodeID, msg, mac []byte) error
}

// CostModel gives the CPU time charged per cryptographic operation in the
// simulator. Defaults are calibrated to a ~3.4 GHz EPYC core (§6):
// signature verification dominates, MACs are cheap — the asymmetry that
// separates SpotLess/Pbft (MAC-based) from HotStuff/Narwhal-HS (DS-based).
type CostModel struct {
	Sign      time.Duration // produce one digital signature
	Verify    time.Duration // verify one digital signature
	MAC       time.Duration // compute or verify one MAC
	HashPerKB time.Duration // hash cost per KiB of payload
	// Cores is the number of virtual cores the verification pipeline may
	// use for one batch (the simulated analogue of the real runtime's
	// worker pool; see Verifier). 0 or 1 serializes verification — the
	// pre-pipeline behaviour.
	Cores int
}

// Charger accumulates modelled CPU time; the simulator's node context
// implements it.
type Charger interface {
	ChargeCPU(d time.Duration)
}

// nopCharger discards charges (used by the real providers).
type nopCharger struct{}

func (nopCharger) ChargeCPU(time.Duration) {}

// ---------------------------------------------------------------------------
// Real provider: ed25519 + HMAC-SHA256
// ---------------------------------------------------------------------------

// Keyring holds the deterministic key material of a cluster.
type Keyring struct {
	secret []byte
	pubs   map[types.NodeID]ed25519.PublicKey
	privs  map[types.NodeID]ed25519.PrivateKey
}

// NewClusterKeyring is the keyring of an n-replica deployment: replicas
// 0..n−1 and the client identity types.ClientIDBase.
func NewClusterKeyring(secret []byte, n int) *Keyring {
	ids := make([]types.NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		ids = append(ids, types.NodeID(i))
	}
	return NewKeyring(secret, append(ids, types.ClientIDBase))
}

// NewKeyring derives ed25519 keypairs for the given node ids from a cluster
// secret. All replicas of a deployment construct the same ring, emulating a
// pre-distributed PKI.
func NewKeyring(secret []byte, ids []types.NodeID) *Keyring {
	kr := &Keyring{
		secret: append([]byte(nil), secret...),
		pubs:   make(map[types.NodeID]ed25519.PublicKey, len(ids)),
		privs:  make(map[types.NodeID]ed25519.PrivateKey, len(ids)),
	}
	for _, id := range ids {
		seed := kr.deriveSeed(id)
		priv := ed25519.NewKeyFromSeed(seed)
		kr.privs[id] = priv
		kr.pubs[id] = priv.Public().(ed25519.PublicKey)
	}
	return kr
}

func (kr *Keyring) deriveSeed(id types.NodeID) []byte {
	h := hmac.New(sha256.New, kr.secret)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(uint32(id)))
	h.Write([]byte("seed"))
	h.Write(b[:])
	return h.Sum(nil)
}

func (kr *Keyring) pairKey(a, b types.NodeID) []byte {
	if a > b {
		a, b = b, a
	}
	h := hmac.New(sha256.New, kr.secret)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(uint32(a)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(uint32(b)))
	h.Write([]byte("pair"))
	h.Write(buf[:])
	return h.Sum(nil)
}

// Ed25519Provider is the real-cryptography provider for one node.
type Ed25519Provider struct {
	id   types.NodeID
	ring *Keyring
}

// Provider returns the real provider for node id. The id must be in the
// ring.
func (kr *Keyring) Provider(id types.NodeID) (*Ed25519Provider, error) {
	if _, ok := kr.privs[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return &Ed25519Provider{id: id, ring: kr}, nil
}

// ID implements Provider.
func (p *Ed25519Provider) ID() types.NodeID { return p.id }

// Sign implements Provider.
func (p *Ed25519Provider) Sign(msg []byte) types.Signature {
	return types.Signature{Signer: p.id, Bytes: ed25519.Sign(p.ring.privs[p.id], msg)}
}

// Verify implements Provider.
func (p *Ed25519Provider) Verify(sig types.Signature, msg []byte) error {
	pub, ok := p.ring.pubs[sig.Signer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, sig.Signer)
	}
	if !ed25519.Verify(pub, msg, sig.Bytes) {
		return ErrBadSignature
	}
	return nil
}

// MAC implements Provider.
func (p *Ed25519Provider) MAC(to types.NodeID, msg []byte) []byte {
	h := hmac.New(sha256.New, p.ring.pairKey(p.id, to))
	h.Write(msg)
	return h.Sum(nil)
}

// VerifyMAC implements Provider.
func (p *Ed25519Provider) VerifyMAC(from types.NodeID, msg, mac []byte) error {
	h := hmac.New(sha256.New, p.ring.pairKey(p.id, from))
	h.Write(msg)
	if !hmac.Equal(h.Sum(nil), mac) {
		return ErrBadMAC
	}
	return nil
}

// ---------------------------------------------------------------------------
// Simulation provider: constant tags + CPU cost charging
// ---------------------------------------------------------------------------

// SimProvider produces cheap deterministic tags and charges the node's CPU
// meter per the cost model. Tags are verifiable by recomputation; Byzantine
// behaviour in the simulator is expressed through protocol drivers, never
// through tag forgery, preserving the paper's authentication assumption
// ("replicas cannot impersonate non-faulty replicas", §2).
type SimProvider struct {
	id      types.NodeID
	costs   CostModel
	charger Charger
}

// NewSimProvider creates a simulation provider for a node. charger may be
// nil (no cost accounting).
func NewSimProvider(id types.NodeID, costs CostModel, charger Charger) *SimProvider {
	if charger == nil {
		charger = nopCharger{}
	}
	return &SimProvider{id: id, costs: costs, charger: charger}
}

// ID implements Provider.
func (p *SimProvider) ID() types.NodeID { return p.id }

func simTag(signer types.NodeID, msg []byte) []byte {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(uint32(signer)))
	h.Write(b[:])
	h.Write(msg)
	return h.Sum(nil)[:16]
}

// Sign implements Provider, charging the signing cost.
func (p *SimProvider) Sign(msg []byte) types.Signature {
	p.charger.ChargeCPU(p.costs.Sign + p.hashCost(msg))
	return types.Signature{Signer: p.id, Bytes: simTag(p.id, msg)}
}

// Verify implements Provider, charging the verification cost.
func (p *SimProvider) Verify(sig types.Signature, msg []byte) error {
	p.charger.ChargeCPU(p.costs.Verify + p.hashCost(msg))
	if !hmac.Equal(sig.Bytes, simTag(sig.Signer, msg)) {
		return ErrBadSignature
	}
	return nil
}

// MAC implements Provider, charging the MAC cost.
func (p *SimProvider) MAC(to types.NodeID, msg []byte) []byte {
	p.charger.ChargeCPU(p.costs.MAC + p.hashCost(msg))
	return simTag(p.id, msg)[:8]
}

// VerifyMAC implements Provider, charging the MAC cost.
func (p *SimProvider) VerifyMAC(from types.NodeID, msg, mac []byte) error {
	p.charger.ChargeCPU(p.costs.MAC + p.hashCost(msg))
	if !hmac.Equal(mac, simTag(from, msg)[:8]) {
		return ErrBadMAC
	}
	return nil
}

func (p *SimProvider) hashCost(msg []byte) time.Duration {
	return p.costs.HashPerKB * time.Duration(len(msg)/1024)
}

var (
	_ Provider = (*Ed25519Provider)(nil)
	_ Provider = (*SimProvider)(nil)
)
