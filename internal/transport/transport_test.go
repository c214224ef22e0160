package transport_test

import (
	"reflect"
	"testing"

	"spotless/internal/crypto"
	"spotless/internal/transport"
	"spotless/internal/types"
)

// TestEncodeDecodeRoundTrip covers the wire codec for representative
// messages of every protocol.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	batch := &types.Batch{ID: types.Digest{1}, Txns: []types.Transaction{{Client: 5, Seq: 9, Op: types.OpWrite, Key: 7, Value: []byte("v")}}}
	msgs := []types.Message{
		&types.Propose{Instance: 1, View: 2, Batch: batch, Parent: types.Justification{Kind: types.JustCert, ParentView: 1, Cert: []types.Signature{{Signer: 3, Bytes: []byte("s")}}}},
		&types.Sync{Instance: 1, View: 2, Claim: types.Claim{View: 2, Digest: types.Digest{9}}, CP: []types.CPEntry{{View: 1, Digest: types.Digest{8}}}, Retransmit: true},
		&types.Ask{Instance: 0, View: 3, Claim: types.Claim{View: 3, Empty: true}},
		&types.PrePrepare{Instance: 2, Seq: 11, Batch: batch},
		&types.HSProposal{View: 4, Block: types.Digest{2}, Justify: types.QC{View: 3, Sigs: []types.Signature{{Signer: 1, Bytes: []byte("q")}}}},
		&types.Inform{Replica: 2, BatchID: types.Digest{1}},
	}
	for _, m := range msgs {
		payload, err := transport.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		back, err := transport.Decode(payload)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("round-trip mismatch for %T:\n got %+v\nwant %+v", m, back, m)
		}
	}
}

// TestMACRejection: frames with tampered payloads are dropped.
func TestMACRejection(t *testing.T) {
	ring := crypto.NewKeyring([]byte("mac-test"), []types.NodeID{0, 1})
	p0, _ := ring.Provider(0)
	p1, _ := ring.Provider(1)
	payload, _ := transport.Encode(&types.Ask{Instance: 1})
	mac := p0.MAC(1, payload)
	if err := p1.VerifyMAC(0, payload, mac); err != nil {
		t.Fatalf("valid MAC rejected: %v", err)
	}
	payload[0] ^= 0xff
	if err := p1.VerifyMAC(0, payload, mac); err == nil {
		t.Fatal("tampered payload accepted")
	}
}
