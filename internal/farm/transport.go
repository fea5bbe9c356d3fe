package farm

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrUnknownNode is returned for a destination that is neither the
// coordinator nor one of the cluster's workers.
var ErrUnknownNode = errors.New("farm: unknown destination node")

// linkKey identifies one directed link; per-link ordinal clocks make fault
// schedules independent of cross-link interleaving.
type linkKey struct {
	from, to NodeID
}

// transport is the farm's one message path. The protocol is strict
// request/response, so delivery is a direct call to the destination's
// Receive: no queues, no timeouts, no reordering. On the way it stamps each
// envelope with its per-link ordinal (Seq) and idempotency key (Idem), and
// fires the X15 fault plan's message events when an ordinal matches.
//
// Loss is modelled as lose-then-retransmit: the doomed transmission is
// counted lost, and the at-least-once layer immediately resends the same
// envelope (same Idem, fresh Seq). Duplication delivers the request twice;
// the receiver's Idem cache absorbs the second copy, so every Receive must
// be idempotent for a redelivered request. Both event kinds key on the link
// ordinals of MsgAssign carriers on coordinator->worker links: on a real
// wire every message is at risk, but assigns are the only traffic that is
// not idempotent by construction, so they are where dedup is load-bearing
// and where the property tests aim the schedule.
type transport struct {
	cl *Cluster

	mu  sync.Mutex
	seq map[linkKey]uint64
}

func (t *transport) next(env *Envelope) uint64 {
	k := linkKey{env.From, env.To}
	t.mu.Lock()
	t.seq[k]++
	s := t.seq[k]
	t.mu.Unlock()
	return s
}

// fires reports whether a scheduled event ordinal hits this envelope: only
// MsgAssign carriers on coordinator->worker links are at risk (see type doc).
func (t *transport) fires(at int64, env *Envelope) bool {
	return at > 0 && env.Type == MsgAssign && env.From == Coordinator &&
		env.Seq == uint64(at)
}

// deliver hands env to its destination node and returns the response.
func (t *transport) deliver(env *Envelope) (*Envelope, error) {
	if env.To == Coordinator {
		return t.cl.co.Receive(env), nil
	}
	if i := int(env.To) - 1; i >= 0 && i < len(t.cl.ws) {
		return t.cl.ws[i].Receive(env), nil
	}
	return nil, ErrUnknownNode
}

// send delivers one request envelope and returns the response.
func (t *transport) send(env *Envelope) (*Envelope, error) {
	st, plan := &t.cl.st, &t.cl.cfg.Plan
	env.Seq = t.next(env)
	if env.Idem == 0 {
		env.Idem = env.IdemKey()
	}
	atomic.AddInt64(&st.MsgsSent, 1)
	if t.fires(plan.LoseMsg, env) {
		// The transmission is lost in flight; at-least-once delivery
		// retransmits the identical envelope on the next link ordinal.
		atomic.AddInt64(&st.MsgsLost, 1)
		atomic.AddInt64(&st.MsgsRetransmitted, 1)
		env.Seq = t.next(env)
		atomic.AddInt64(&st.MsgsSent, 1)
	}
	resp, err := t.deliver(env)
	if err != nil {
		return nil, err
	}
	if t.fires(plan.DupMsg, env) {
		// The network delivers the request a second time; the receiver's
		// idempotency cache must absorb it. The duplicate's response is
		// discarded, as a real wire would drop the late reply.
		atomic.AddInt64(&st.MsgsDuplicated, 1)
		t.deliver(env)
	}
	return resp, nil
}
