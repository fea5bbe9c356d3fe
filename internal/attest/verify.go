package attest

import (
	"fmt"

	"repro/internal/derive"
)

// Level is the strength of proof a verification achieved.
type Level uint8

const (
	// LevelUnverifiable: no quorum-cosigned evidence could be obtained. The
	// verifier refuses to guess — this is the explicit bottom of the
	// degradation ladder, never a silent false positive.
	LevelUnverifiable Level = iota
	// LevelEpoch: a single epoch block with a valid collective signature
	// contained the subject, but the hash-chain walk from the log head could
	// not be completed (servers died mid-query).
	LevelEpoch
	// LevelSkipchain: the full proof — a cosigned head, an O(log n)
	// skipchain walk to the target epoch, and the subject's record under the
	// target's statement root.
	LevelSkipchain
)

// String names the proof level.
func (l Level) String() string {
	switch l {
	case LevelSkipchain:
		return "skipchain"
	case LevelEpoch:
		return "epoch"
	default:
		return "unverifiable"
	}
}

// Verdict answers "is this artifact the honest build of this source?".
// OK is true only when quorum-cosigned log evidence matches the claimed
// output. Refuted is true when such evidence PROVES the claim wrong (the log
// admitted a different output for the subject) — strictly stronger than
// merely failing to verify. Hops counts chain links followed, pinning the
// O(log n) bound.
type Verdict struct {
	Level   Level
	OK      bool
	Refuted bool
	Hops    int
	Detail  string
}

// LogClient is the verifier's view of one transparency-log replica,
// satisfied by *Server. Every answer is untrusted: the verifier checks
// cosignatures and hash links itself, so a Byzantine server can at worst
// fail to help.
type LogClient interface {
	Head() (*Epoch, error)
	EpochAt(i int) (*Epoch, error)
	Locate(subject derive.Key, job uint64) (int, error)
}

// Verifier answers artifact queries from the transparency log alone — no
// rebuild. It holds the deterministic keyring (reconstructable from the
// farm's declared inputs) and a set of log replicas to try in order.
type Verifier struct {
	ring    *Keyring
	servers []LogClient
	// BadBlocks counts blocks rejected for invalid collective signatures —
	// every equivocated fork the verifier caught.
	BadBlocks int
	// Queries counts log-server round trips issued.
	Queries int
	// cosignOK memoizes collective-signature verdicts by block hash. Safe
	// against equivocation because the key IS the content: a forked block
	// hashes differently and gets its own (failing) entry. This is what
	// keeps repeated verification cheap — each epoch's signatures are
	// checked once per verifier lifetime, not once per query.
	cosignOK map[uint64]bool
}

// NewVerifier builds a verifier over the keyring and log replicas.
func NewVerifier(ring *Keyring, servers ...LogClient) *Verifier {
	return &Verifier{ring: ring, servers: servers, cosignOK: make(map[uint64]bool)}
}

// cosigned reports whether the epoch carries a valid collective signature: a
// strict majority of its participants, the coordinator (ordinal 0) among
// them, each verifying against the deterministic keyring. A forked block
// cannot satisfy this — its tampered BlockHash invalidates every carried
// signature.
func (v *Verifier) cosigned(e *Epoch) bool {
	if len(e.Participants) == 0 {
		return false
	}
	h := e.BlockHash()
	if ok, hit := v.cosignOK[h]; hit {
		return ok
	}
	seen := make(map[int32]bool, len(e.Cosigs))
	valid, coord := 0, false
	for _, c := range e.Cosigs {
		if seen[c.Ord] || !v.ring.VerifyCosign(c.Ord, h, c.Sig) {
			continue
		}
		seen[c.Ord] = true
		valid++
		if c.Ord == 0 {
			coord = true
		}
	}
	ok := coord && valid > len(e.Participants)/2
	v.cosignOK[h] = ok
	return ok
}

// fetch is one counted, checked server query: the block at index i, rejected
// unless its statement root matches its records.
func (v *Verifier) fetch(s LogClient, i int) (*Epoch, error) {
	v.Queries++
	e, err := s.EpochAt(i)
	if err != nil {
		return nil, err
	}
	if statementsRoot(e.Records) != e.Root {
		v.BadBlocks++
		return nil, fmt.Errorf("attest: epoch %d root mismatch", i)
	}
	return e, nil
}

// judge turns a proven record into the final verdict.
func judge(level Level, hops int, r Record, output uint64) Verdict {
	if r.Output == output {
		return Verdict{Level: level, OK: true, Hops: hops,
			Detail: fmt.Sprintf("%s proof, %d cosigners", level, len(r.Cosigners))}
	}
	return Verdict{Level: level, Refuted: true, Hops: hops,
		Detail: fmt.Sprintf("log admits output %016x, not %016x", r.Output, output)}
}

// skipWalk proves the target epoch against a cosigned head by following
// hash links, greedily taking the longest back-link each hop — O(log n)
// hops for an n-epoch chain. Every fetched block must hash to the link that
// named it, so one cosignature check (the head's) covers the whole walk.
func (v *Verifier) skipWalk(s LogClient, head *Epoch, target int) (*Epoch, int, error) {
	cur, hops := head, 0
	for cur.Index > target {
		// Longest available link not overshooting the target: Skip[k] spans
		// 2^(k+1) epochs, Prev spans 1.
		next, want := cur.Index-1, cur.Prev
		for k := len(cur.Skip) - 1; k >= 0; k-- {
			if idx := cur.Index - (2 << k); idx >= target {
				next, want = idx, cur.Skip[k]
				break
			}
		}
		e, err := v.fetch(s, next)
		if err != nil {
			return nil, hops, err
		}
		if e.BlockHash() != want {
			v.BadBlocks++
			return nil, hops, fmt.Errorf("attest: epoch %d breaks chain link", next)
		}
		cur, hops = e, hops+1
	}
	return cur, hops, nil
}

// Verify answers whether the log certifies (subject, job) → output,
// degrading gracefully as servers fail:
//
//	skipchain proof → single-epoch proof → explicit Unverifiable.
//
// Each server is tried in turn for the full proof (locate, cosigned head,
// skip-walk, record check); if no server can sustain a walk, each is tried
// for a lone cosigned target epoch; if that also fails the verdict is
// Unverifiable with OK=false — never a false positive, because OK requires
// a valid collective signature no Byzantine minority can forge.
func (v *Verifier) Verify(subject derive.Key, job, output uint64) Verdict {
	var lastErr error
	for _, s := range v.servers {
		v.Queries++
		target, err := s.Locate(subject, job)
		if err != nil {
			lastErr = err
			continue
		}
		v.Queries++
		head, err := s.Head()
		if err != nil {
			lastErr = err
			continue
		}
		if statementsRoot(head.Records) != head.Root || !v.cosigned(head) {
			v.BadBlocks++
			lastErr = fmt.Errorf("attest: head %d not honestly cosigned", head.Index)
			continue
		}
		if target > head.Index {
			lastErr = fmt.Errorf("attest: located epoch %d beyond head %d", target, head.Index)
			continue
		}
		e, hops, err := v.skipWalk(s, head, target)
		if err != nil {
			lastErr = err
			continue
		}
		r, ok := e.Contains(subject, job)
		if !ok {
			lastErr = fmt.Errorf("attest: epoch %d lacks subject", target)
			continue
		}
		return judge(LevelSkipchain, hops, r, output)
	}
	// Degraded pass: any single cosigned epoch containing the subject still
	// proves admission (the collective signature covers the root), just
	// without head linkage.
	for _, s := range v.servers {
		v.Queries++
		target, err := s.Locate(subject, job)
		if err != nil {
			continue
		}
		e, err := v.fetch(s, target)
		if err != nil {
			continue
		}
		if !v.cosigned(e) {
			v.BadBlocks++
			continue
		}
		if r, ok := e.Contains(subject, job); ok {
			return judge(LevelEpoch, 0, r, output)
		}
	}
	detail := "no quorum-cosigned evidence reachable"
	if lastErr != nil {
		detail = lastErr.Error()
	}
	return Verdict{Level: LevelUnverifiable, Detail: detail}
}
