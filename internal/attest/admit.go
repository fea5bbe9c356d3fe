package attest

import "sort"

// Admission is the outcome of judging one job's attestation pool.
type Admission struct {
	// Record is the admitted statement plus its audit trail; valid only when
	// OK is true.
	Record Record
	// Dissent names every builder ordinal whose attestation disagreed with
	// the quorum (wrong bits, invalid signature, or withheld) — the set the
	// coordinator quarantines. Populated whether or not a quorum formed.
	Dissent []int32
	// OK reports whether at least k mutually-agreeing valid attestations
	// certified the statement.
	OK bool
}

// Checker is the signature check admission runs on each delivered
// attestation. *Keyring is the reference implementation; a caller may wrap
// it (the farm caches one job's verdicts so each attestation is checked
// once however often the job's pool is judged).
type Checker interface {
	Verify(Attestation) bool
}

// Admit runs k-of-n quorum admission over one job's attestation pool: the
// primary's claim plus every rebuilder's independent re-execution, each a
// vote for its statement digest. An attestation with an invalid signature
// is an errored vote (a corrupted attestation can never help a quorum), and
// so is an expected ordinal that never delivered (WithholdCosign); errored
// votes count for no digest and are named in the dissent. The quorum value
// is the digest with the most valid votes, the lowest digest on a tie, and
// it is admitted when at least k votes back it (0 < k <= n). Under
// determinism every honest builder computes the identical statement, so k
// honest participants always agree and any lie is a minority — the quorum
// never admits it, and a dissenting ordinal names a faulty or lying node.
// When no quorum forms, every expected ordinal dissents.
//
// expected lists the ordinals whose attestations were solicited; atts holds
// what actually arrived (same order not required). check is consulted once
// per expected ordinal that delivered.
func Admit(check Checker, expected []int32, atts []Attestation, k int) Admission {
	byOrd := make(map[int32]Attestation, len(atts))
	for _, a := range atts {
		byOrd[a.Builder] = a
	}
	votes := make([]uint64, len(expected))
	valid := make([]bool, len(expected))
	counts := make(map[uint64]int, len(expected))
	for i, ord := range expected {
		if a, got := byOrd[ord]; got && check.Verify(a) {
			votes[i], valid[i] = a.Statement.Digest(), true
			counts[votes[i]]++
		}
	}
	var best uint64
	bestN := 0
	for d, n := range counts {
		if n > bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	adm := Admission{OK: k > 0 && k <= len(expected) && bestN >= k}
	for i, ord := range expected {
		if !adm.OK || !valid[i] || votes[i] != best {
			adm.Dissent = append(adm.Dissent, ord)
			continue
		}
		adm.Record.Statement = byOrd[ord].Statement
		adm.Record.Cosigners = append(adm.Record.Cosigners, ord)
	}
	sort.Slice(adm.Dissent, func(i, j int) bool { return adm.Dissent[i] < adm.Dissent[j] })
	sort.Slice(adm.Record.Cosigners, func(i, j int) bool { return adm.Record.Cosigners[i] < adm.Record.Cosigners[j] })
	if adm.OK {
		adm.Record.Dissent = adm.Dissent
	}
	return adm
}
