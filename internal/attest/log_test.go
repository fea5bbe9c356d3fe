package attest

import (
	"testing"

	"repro/internal/derive"
)

const testSeed = 77

func testSubject(job uint64) derive.Key {
	return derive.Key{Image: 0xA000 + job, Config: 0xC0}
}

// buildLog seals `epochs` epochs of `perEpoch` admitted records each,
// collectively cosigned by ordinals {0,1,2}, replicated onto every server.
func buildLog(epochs, perEpoch int, servers ...*Server) (*Keyring, *Chain) {
	parts := []int32{0, 1, 2}
	ring := NewKeyring(2, testSeed)
	chain := NewChain()
	job := uint64(1)
	for i := 0; i < epochs; i++ {
		var recs []Record
		for j := 0; j < perEpoch; j++ {
			recs = append(recs, Record{Statement: Statement{
				Subject: testSubject(job), Job: job,
				Output: 0xF000 + job, Ring: job}, Cosigners: parts})
			job++
		}
		e := chain.Seal(recs, parts)
		h := e.BlockHash()
		for _, ord := range parts {
			e.Cosigs = append(e.Cosigs, Cosig{Ord: ord, Sig: NewSigner(ord, testSeed).Cosign(h)})
		}
		for _, s := range servers {
			s.Append(e)
		}
	}
	return ring, chain
}

// TestSkipchainHopsLogarithmic pins the O(log n) proof bound: verifying the
// oldest record in a 64-epoch chain takes at most log2(64)+1 hops from the
// head, with the full skipchain proof level.
func TestSkipchainHopsLogarithmic(t *testing.T) {
	srv := NewServer()
	ring, _ := buildLog(64, 1, srv)
	v := NewVerifier(ring, srv)
	vd := v.Verify(testSubject(1), 1, 0xF001)
	if !vd.OK || vd.Level != LevelSkipchain {
		t.Fatalf("oldest record not skipchain-verified: %+v", vd)
	}
	if vd.Hops > 7 {
		t.Fatalf("walked %d hops across 64 epochs, want <= 7 (O(log n))", vd.Hops)
	}
}

// TestVerifierRefutesWrongOutput: cosigned evidence for a different output
// yields Refuted, which is strictly stronger than failing to verify.
func TestVerifierRefutesWrongOutput(t *testing.T) {
	srv := NewServer()
	ring, _ := buildLog(4, 2, srv)
	v := NewVerifier(ring, srv)
	vd := v.Verify(testSubject(3), 3, 0xBAD)
	if vd.OK {
		t.Fatalf("false claim verified: %+v", vd)
	}
	if !vd.Refuted {
		t.Fatalf("false claim not refuted: %+v", vd)
	}
}

// TestVerifierUnknownSubject: a subject the log never admitted is
// Unverifiable — not refuted (no evidence either way), never OK.
func TestVerifierUnknownSubject(t *testing.T) {
	srv := NewServer()
	ring, _ := buildLog(3, 1, srv)
	v := NewVerifier(ring, srv)
	vd := v.Verify(derive.Key{Image: 0xDEAD, Config: 0xBEEF}, 99, 1)
	if vd.OK || vd.Refuted || vd.Level != LevelUnverifiable {
		t.Fatalf("unknown subject: %+v", vd)
	}
}

// TestEquivocatingServerCaught: a split-view replica alternating honest and
// forked chains cannot get a lie past the verifier — the forked blocks fail
// the collective-signature check (BadBlocks), and an honest replica still
// proves the truth.
func TestEquivocatingServerCaught(t *testing.T) {
	evil, honest := NewEquivocatingServer(), NewServer()
	ring, _ := buildLog(6, 1, evil, honest)
	v := NewVerifier(ring, evil, honest)
	for job := uint64(1); job <= 6; job++ {
		vd := v.Verify(testSubject(job), job, 0xF000+job)
		if !vd.OK || vd.Refuted {
			t.Fatalf("job %d: honest claim not verified despite honest replica: %+v", job, vd)
		}
	}
	if v.BadBlocks == 0 {
		t.Fatal("equivocating replica never caught (BadBlocks = 0)")
	}
}

// TestVerifierDegradesToEpochProof: when no replica can sustain a head-linked
// walk (the head is not yet cosigned — a lagging replica), a lone cosigned
// epoch still proves admission at the weaker LevelEpoch.
func TestVerifierDegradesToEpochProof(t *testing.T) {
	srv := NewServer()
	ring, chain := buildLog(3, 1, srv)
	// Seal one more epoch but never collect cosignatures — an unsigned
	// provisional head.
	srv.Append(chain.Seal([]Record{{Statement: Statement{
		Subject: testSubject(9), Job: 9, Output: 0xF009}}}, []int32{0, 1, 2}))
	v := NewVerifier(ring, srv)
	vd := v.Verify(testSubject(1), 1, 0xF001)
	if !vd.OK || vd.Level != LevelEpoch {
		t.Fatalf("want degraded epoch-level proof, got %+v", vd)
	}
	// The unsigned epoch itself must not verify at any level.
	if vd := v.Verify(testSubject(9), 9, 0xF009); vd.OK {
		t.Fatalf("uncosigned epoch verified: %+v", vd)
	}
}

// TestVerifierServerDiesMidQuery: a replica killed mid-walk steps the proof
// down — to another replica, then to Unverifiable — and never yields a false
// Verified.
func TestVerifierServerDiesMidQuery(t *testing.T) {
	srv := NewServer()
	ring, _ := buildLog(8, 1, srv)
	v := NewVerifier(ring, srv)
	if vd := v.Verify(testSubject(1), 1, 0xF001); !vd.OK || vd.Level != LevelSkipchain {
		t.Fatalf("healthy server: %+v", vd)
	}
	srv.KillAfter(2) // dies inside the next walk
	vd := v.Verify(testSubject(1), 1, 0xF001)
	if vd.OK {
		t.Fatalf("dead-server verification returned OK: %+v", vd)
	}
	if vd.Level != LevelUnverifiable {
		t.Fatalf("want explicit Unverifiable, got %+v", vd)
	}
	// Same schedule with a healthy second replica: full proof survives.
	srv2, srv3 := NewServer(), NewServer()
	ring, _ = buildLog(8, 1, srv2, srv3)
	v = NewVerifier(ring, srv2, srv3)
	srv2.KillAfter(2)
	if vd := v.Verify(testSubject(1), 1, 0xF001); !vd.OK || vd.Level != LevelSkipchain {
		t.Fatalf("failover to healthy replica: %+v", vd)
	}
}

// TestVerifierAllServersDead: the ladder bottoms out at an explicit
// Unverifiable verdict.
func TestVerifierAllServersDead(t *testing.T) {
	a, b := NewServer(), NewServer()
	ring, _ := buildLog(2, 1, a, b)
	a.Kill()
	b.Kill()
	v := NewVerifier(ring, a, b)
	vd := v.Verify(testSubject(1), 1, 0xF001)
	if vd.OK || vd.Refuted || vd.Level != LevelUnverifiable {
		t.Fatalf("dead log: %+v", vd)
	}
}
