package attest

import (
	"fmt"
	"sort"

	"repro/internal/replica"
)

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

// Admit runs k-of-n quorum admission over one job's attestation pool:
// the primary's claim plus every rebuilder's independent re-execution,
// judged by replica.QuorumDissent over the statement digests. An
// attestation with an invalid signature is demoted to an errored vote
// before counting (a corrupted attestation can never help a quorum), and
// expected ordinals that never delivered (WithholdCosign) enter as errored
// votes so they are named in the dissent. Under determinism every honest
// builder computes the identical statement, so k honest participants always
// agree and any lie is a minority — the quorum never admits it.
//
// expected lists the ordinals whose attestations were solicited; atts holds
// what actually arrived (same order not required). check is consulted once
// per expected ordinal that delivered.
func Admit(check Checker, expected []int32, atts []Attestation, k int) Admission {
	byOrd := make(map[int32]Attestation, len(atts))
	for _, a := range atts {
		byOrd[a.Builder] = a
	}
	votes := make([]replica.Result, len(expected))
	for i, ord := range expected {
		a, got := byOrd[ord]
		switch {
		case !got:
			votes[i] = replica.Result{Host: fmt.Sprintf("node-%d", ord), Err: fmt.Errorf("attest: ordinal %d withheld attestation", ord)}
		case !check.Verify(a):
			votes[i] = replica.Result{Host: fmt.Sprintf("node-%d", ord), Err: fmt.Errorf("attest: ordinal %d signature invalid", ord)}
		default:
			votes[i] = replica.Result{Host: fmt.Sprintf("node-%d", ord), StateHash: fmt.Sprintf("%016x", a.Statement.Digest())}
		}
	}
	_, dissentIdx, ok := replica.QuorumDissent(votes, k)
	adm := Admission{OK: ok}
	dissentSet := make(map[int32]bool, len(dissentIdx))
	for _, i := range dissentIdx {
		adm.Dissent = append(adm.Dissent, expected[i])
		dissentSet[expected[i]] = true
	}
	sort.Slice(adm.Dissent, func(i, j int) bool { return adm.Dissent[i] < adm.Dissent[j] })
	if !ok {
		return adm
	}
	for _, ord := range expected {
		if dissentSet[ord] {
			continue
		}
		adm.Record.Statement = byOrd[ord].Statement
		adm.Record.Cosigners = append(adm.Record.Cosigners, ord)
	}
	sort.Slice(adm.Record.Cosigners, func(i, j int) bool { return adm.Record.Cosigners[i] < adm.Record.Cosigners[j] })
	adm.Record.Dissent = adm.Dissent
	return adm
}
