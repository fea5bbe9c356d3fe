package attest

import (
	"reflect"
	"testing"
)

// countingChecker is a Checker that counts every signature check it is
// asked for, per builder, and answers with the real keyring.
type countingChecker struct {
	ring  *Keyring
	calls map[int32]int
}

func (c *countingChecker) Verify(a Attestation) bool {
	c.calls[a.Builder]++
	return c.ring.Verify(a)
}

// TestAdmit pins quorum admission case by case: who co-signs, who is named
// in the dissent, whether a record is admitted at all — and that each
// delivered attestation's signature is checked exactly once.
func TestAdmit(t *testing.T) {
	const seed = 99
	honest := sampleStatement()
	lie := honest
	lie.Output ^= 0xBAD
	sign := func(ord int32, st Statement) Attestation {
		role := RoleRebuilder
		if ord == 1 {
			role = RolePrimary
		}
		return NewSigner(ord, seed).Attest(st, role)
	}
	corrupt := func(a Attestation) Attestation {
		a.Sig = append([]byte(nil), a.Sig...)
		a.Sig[0] ^= 0xFF
		return a
	}
	cases := []struct {
		name      string
		expected  []int32
		atts      []Attestation
		k         int
		ok        bool
		dissent   []int32
		cosigners []int32
	}{
		{"all honest", []int32{1, 2, 3},
			[]Attestation{sign(1, honest), sign(2, honest), sign(3, honest)},
			2, true, nil, []int32{1, 2, 3}},
		{"one withheld", []int32{1, 2, 3},
			[]Attestation{sign(3, honest), sign(1, honest)},
			2, true, []int32{2}, []int32{1, 3}},
		{"one invalid signature", []int32{1, 2, 3},
			[]Attestation{sign(1, honest), corrupt(sign(2, honest)), sign(3, honest)},
			2, true, []int32{2}, []int32{1, 3}},
		{"one lying minority", []int32{1, 2, 3},
			[]Attestation{sign(1, honest), sign(2, honest), sign(3, lie)},
			2, true, []int32{3}, []int32{1, 2}},
		{"no quorum 1-of-2 split", []int32{1, 2},
			[]Attestation{sign(1, honest), sign(2, lie)},
			2, false, []int32{1, 2}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chk := &countingChecker{ring: NewKeyring(3, seed), calls: map[int32]int{}}
			adm := Admit(chk, tc.expected, tc.atts, tc.k)
			if adm.OK != tc.ok {
				t.Fatalf("OK = %v, want %v", adm.OK, tc.ok)
			}
			if !reflect.DeepEqual(adm.Dissent, tc.dissent) {
				t.Errorf("Dissent = %v, want %v", adm.Dissent, tc.dissent)
			}
			if !reflect.DeepEqual(adm.Record.Cosigners, tc.cosigners) {
				t.Errorf("Record.Cosigners = %v, want %v", adm.Record.Cosigners, tc.cosigners)
			}
			if tc.ok {
				if adm.Record.Statement != honest {
					t.Errorf("admitted %+v, want the honest statement", adm.Record.Statement)
				}
				if !reflect.DeepEqual(adm.Record.Dissent, adm.Dissent) {
					t.Errorf("Record.Dissent = %v, want %v", adm.Record.Dissent, adm.Dissent)
				}
			}
			if len(chk.calls) != len(tc.atts) {
				t.Errorf("checked %d builders, want every one of the %d delivered", len(chk.calls), len(tc.atts))
			}
			for _, a := range tc.atts {
				if n := chk.calls[a.Builder]; n != 1 {
					t.Errorf("ordinal %d: signature checked %d times, want 1", a.Builder, n)
				}
			}
		})
	}
}
