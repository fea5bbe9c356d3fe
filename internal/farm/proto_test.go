package farm

import (
	"reflect"
	"testing"
)

func sampleEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgRegister, From: 3, To: Coordinator, Slots: 2},
		{Type: MsgAssign, From: Coordinator, To: 1, Seq: 7, Idem: 0xDEAD,
			Job: 42, Attempt: 1, Image: 0xABC000, Config: 0xC0F,
			Wall: 123456789, Doom: true},
		{Type: MsgResult, From: 1, To: Coordinator, Job: 42, Attempt: 1,
			Status: "ok", Digest: 0xFEEDFACE, Ordinal: 3},
		{Type: MsgSealPut, From: 2, To: Coordinator, Job: 7,
			Image: 1, Config: 2, Ordinal: 4, Digest: 99},
		{Type: MsgSealData, From: Coordinator, To: 2, Status: "miss"},
		{Type: MsgErr, From: Coordinator, To: 9, Status: "unexpected register-ack"},
		{Type: MsgAssign, From: Coordinator, To: 2, Seq: 9, Idem: 0xBEEF,
			Job: 42, Image: 0xABC000, Config: 0xC0F, Rebuild: true},
		{Type: MsgResult, From: 2, To: Coordinator, Job: 42, Status: "ok",
			Source: 0x50BCE, Config: 0xC0F, Ring: 0x1234, Digest: 0xFEEDFACE,
			Sig: []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01}},
		{Type: MsgCosign, From: Coordinator, To: 3, Job: 2, Digest: 0xB10C4A54},
		{Type: MsgCosignAck, From: 3, To: Coordinator, Job: 2,
			Sig: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
		{Type: MsgCosignAck, From: 4, To: Coordinator, Job: 2, Status: "withheld"},
	}
}

// TestEnvelopeRoundTrip covers the binary codec on every message shape.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, e := range sampleEnvelopes() {
		got, err := DecodeEnvelope(e.MarshalBinary())
		if err != nil {
			t.Fatalf("%s: %v", e.Type, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%s: binary round trip\n got %+v\nwant %+v", e.Type, got, e)
		}
	}
}

// TestDecodeRejectsTruncation: every strict prefix of a valid encoding must
// error, never panic or mis-decode.
func TestDecodeRejectsTruncation(t *testing.T) {
	for _, e := range sampleEnvelopes() {
		buf := e.MarshalBinary()
		for n := 0; n < len(buf); n++ {
			if _, err := DecodeEnvelope(buf[:n]); err == nil {
				t.Fatalf("%s: decode accepted %d of %d bytes", e.Type, n, len(buf))
			}
		}
	}
}

// FuzzEnvelopeDecode: arbitrary bytes either fail cleanly or decode to an
// envelope whose re-encoding decodes identically (canonical form fixpoint).
func FuzzEnvelopeDecode(f *testing.F) {
	for _, e := range sampleEnvelopes() {
		f.Add(e.MarshalBinary())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		back, err := DecodeEnvelope(e.MarshalBinary())
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("canonical fixpoint violated\n got %+v\nwant %+v", back, e)
		}
	})
}

// TestIdemKeyStability: the idempotency key ignores Seq (a retransmission
// must dedup) but tracks semantic identity.
func TestIdemKeyStability(t *testing.T) {
	a := &Envelope{Type: MsgAssign, From: Coordinator, To: 1, Seq: 1, Job: 9, Image: 2}
	b := &Envelope{Type: MsgAssign, From: Coordinator, To: 1, Seq: 2, Job: 9, Image: 2}
	if a.IdemKey() != b.IdemKey() {
		t.Fatal("retransmission changed the idempotency key")
	}
	c := &Envelope{Type: MsgAssign, From: Coordinator, To: 1, Seq: 1, Job: 9, Image: 2, Attempt: 1}
	if a.IdemKey() == c.IdemKey() {
		t.Fatal("a new attempt must carry a new idempotency key")
	}
}
