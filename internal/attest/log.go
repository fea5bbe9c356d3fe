package attest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/derive"
)

// Record is one admitted statement plus its admission audit trail. Only the
// Statement is covered by the chain hashes and compared across fault
// schedules: who co-signed and who dissented is mechanism-level accounting
// (WHERE the quorum came from), and a Byzantine schedule legitimately moves
// it — quarantining a liar re-places later work — without moving a single
// admitted bit.
type Record struct {
	Statement
	// Cosigners are the ordinals whose attestations matched the admitted
	// statement (sorted ascending; includes the primary when honest).
	Cosigners []int32
	// Dissent are the ordinals the admission named as lying, corrupted or
	// withholding — the quarantined set (sorted ascending).
	Dissent []int32
}

// Cosig is one node's endorsement of a sealed epoch block.
type Cosig struct {
	Ord int32
	Sig []byte
}

// Epoch is one sealed batch of admitted statements: a block of the
// hash-chained transparency log. Prev links the previous block; Skip holds
// back-links to the blocks 2^k epochs back for every 2^k <= Index, so a
// verifier walks head->target in O(log n) hops, CHAINIAC-style. Cosigs is
// the collective signature over the block hash: the coordinator (ordinal 0,
// the log authority) plus every live honest worker at seal time.
type Epoch struct {
	Index int
	// Prev is the previous block's hash (0 for the genesis epoch).
	Prev uint64
	// Skip[k] is the hash of the block at Index - 2^(k+1); Prev covers the
	// 2^0 link. Only links that land at index >= 0 are present.
	Skip []uint64
	// Root commits the admitted statements (and nothing else — see Record).
	Root    uint64
	Records []Record
	// Participants are the ordinals eligible to co-sign at seal time
	// (coordinator included); a valid block needs cosignatures from a
	// majority of them, the coordinator's among them.
	Participants []int32
	Cosigs       []Cosig
}

// statementsRoot commits an epoch's admitted statements in record order.
func statementsRoot(records []Record) uint64 {
	h := derive.DigestU64(0, 0xE90C4)
	for _, r := range records {
		h = derive.DigestU64(h, r.Statement.Digest())
	}
	return h
}

// BlockHash is the epoch's chain hash: index, previous link, every skip
// link, the statements root and the participant set. Cosignatures sign this
// value, so a forked block with any tampered statement or severed link
// cannot reuse the honest quorum's signatures.
func (e *Epoch) BlockHash() uint64 {
	h := derive.DigestU64(0, 0xB10C, uint64(e.Index), e.Prev)
	h = derive.DigestU64(h, uint64(len(e.Skip)))
	h = derive.DigestU64(h, e.Skip...)
	h = derive.DigestU64(h, e.Root)
	for _, p := range e.Participants {
		h = derive.DigestU64(h, uint64(uint32(p)))
	}
	return h
}

// Contains returns the record matching (subject, job), if present.
func (e *Epoch) Contains(subject derive.Key, job uint64) (Record, bool) {
	for _, r := range e.Records {
		if r.Subject == subject && r.Job == job {
			return r, true
		}
	}
	return Record{}, false
}

// Chain builds the log: it seals admitted records into epochs and computes
// the skip links. The coordinator owns the chain; log servers replicate the
// sealed blocks.
type Chain struct {
	blocks []*Epoch
	hashes []uint64 // blocks[i].BlockHash(), memoized at seal
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Seal closes one epoch over the records: links it to the chain head,
// computes the skip back-links, and commits the statements root. The caller
// attaches participants and cosignatures before publishing; both are covered
// by BlockHash, so Seal leaves Cosigs empty and the caller must not mutate
// Participants afterwards without re-collecting signatures.
func (c *Chain) Seal(records []Record, participants []int32) *Epoch {
	e := &Epoch{Index: len(c.blocks), Records: records,
		Root: statementsRoot(records), Participants: participants}
	if e.Index > 0 {
		e.Prev = c.hashes[e.Index-1]
	}
	for step := 2; step <= e.Index; step *= 2 {
		e.Skip = append(e.Skip, c.hashes[e.Index-step])
	}
	c.blocks = append(c.blocks, e)
	c.hashes = append(c.hashes, e.BlockHash())
	return e
}

// Blocks exposes the sealed chain (for replication to log servers).
func (c *Chain) Blocks() []*Epoch { return c.blocks }

// AdmittedSet flattens the chain into its admitted statements, sorted by
// job — THE value the X20 equivalence gates compare across fault schedules,
// node counts and slot counts.
func (c *Chain) AdmittedSet() []Statement {
	var out []Statement
	for _, b := range c.blocks {
		for _, r := range b.Records {
			out = append(out, r.Statement)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// ErrServerDown is returned by a killed log server: the query never
// completes, and the verifier must degrade to another server or a weaker
// proof.
var ErrServerDown = fmt.Errorf("attest: log server down")

// Server is one transparency-log replica. The honest server stores the
// sealed blocks verbatim. An equivocating server (the EquivocateEpoch fault)
// maintains a second, tampered chain and alternates which one it presents —
// the classic split-view attack — but it cannot forge the quorum's
// cosignatures over its forked block hashes, which is exactly how verifiers
// catch it. Kill and KillAfter model the availability fault plane: a killed
// server errors every query; KillAfter(n) lets n more queries through first,
// so a verifier can lose a server mid-walk.
type Server struct {
	mu     sync.Mutex
	chain  []*Epoch
	forked []*Epoch
	// equivocate alternates answers between the honest and forked chains.
	equivocate bool
	flip       int
	down       bool
	// killAfter counts down per query when > 0; reaching 0 kills the server.
	killAfter int
}

// NewServer returns an empty honest log server.
func NewServer() *Server { return &Server{} }

// NewEquivocatingServer returns a server that presents a tampered fork to
// every other query.
func NewEquivocatingServer() *Server { return &Server{equivocate: true} }

// Append replicates one sealed block onto the server. The equivocating
// server additionally stores a forked copy whose latest record's output is
// flipped — re-rooted and re-linked so the fork is internally consistent,
// but necessarily missing the honest quorum's cosignatures.
func (s *Server) Append(e *Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain = append(s.chain, e)
	if !s.equivocate {
		return
	}
	fork := *e
	fork.Records = append([]Record(nil), e.Records...)
	if len(fork.Records) > 0 {
		lie := fork.Records[len(fork.Records)-1]
		lie.Output ^= 0xEC01BAD
		fork.Records[len(fork.Records)-1] = lie
	}
	fork.Root = statementsRoot(fork.Records)
	if n := len(s.forked); n > 0 {
		fork.Prev = s.forked[n-1].BlockHash()
	}
	// Cosigs carried over from the honest block no longer match the forked
	// BlockHash — the fork is detectable by any verifier with the keyring.
	s.forked = append(s.forked, &fork)
}

// Kill takes the server down: every subsequent query errors.
func (s *Server) Kill() {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
}

// KillAfter lets n more queries succeed, then kills the server — the
// "killed mid-query" schedule of the verifier degradation tests.
func (s *Server) KillAfter(n int) {
	s.mu.Lock()
	s.killAfter = n + 1
	s.mu.Unlock()
}

// query gates one request on the availability plane. Caller holds s.mu.
func (s *Server) queryLocked() error {
	if s.killAfter > 0 {
		s.killAfter--
		if s.killAfter == 0 {
			s.down = true
		}
	}
	if s.down {
		return ErrServerDown
	}
	return nil
}

// view picks which chain this query sees.
func (s *Server) viewLocked() []*Epoch {
	if s.equivocate {
		s.flip++
		if s.flip%2 == 0 {
			return s.forked
		}
	}
	return s.chain
}

// Head returns the server's chain head.
func (s *Server) Head() (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.queryLocked(); err != nil {
		return nil, err
	}
	view := s.viewLocked()
	if len(view) == 0 {
		return nil, fmt.Errorf("attest: empty log")
	}
	return view[len(view)-1], nil
}

// EpochAt returns the block at index i.
func (s *Server) EpochAt(i int) (*Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.queryLocked(); err != nil {
		return nil, err
	}
	view := s.viewLocked()
	if i < 0 || i >= len(view) {
		return nil, fmt.Errorf("attest: no epoch %d", i)
	}
	return view[i], nil
}

// Locate returns the index of the epoch containing (subject, job), or an
// error. The answer is an untrusted hint: a lying server merely sends the
// verifier to an epoch whose proof then fails to contain the subject.
func (s *Server) Locate(subject derive.Key, job uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.queryLocked(); err != nil {
		return 0, err
	}
	for _, b := range s.viewLocked() {
		if _, ok := b.Contains(subject, job); ok {
			return b.Index, nil
		}
	}
	return 0, fmt.Errorf("attest: subject not in log")
}
