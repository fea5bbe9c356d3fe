package farm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
)

// NodeID identifies one farm node. The coordinator is node 0; worker nodes
// are numbered 1..N in registration order (their "ordinal").
type NodeID int32

// Coordinator is the well-known node ID of the coordinator.
const Coordinator NodeID = 0

// MsgType tags one protocol message. The protocol is strict request/response:
// every Send carries a request type and returns the matching response type
// (or MsgErr). See DESIGN.md §4e for the full wire specification.
type MsgType uint8

const (
	// MsgRegister: worker -> coordinator. Advertises capacity (Slots).
	// Response: MsgRegisterAck carrying the worker's assigned ordinal in
	// Ordinal.
	MsgRegister MsgType = iota + 1
	MsgRegisterAck
	// MsgAssign: coordinator -> worker. Assigns one build job (Job, Attempt,
	// Image, Config; Wall carries the virtual time of the previous attempt's
	// death for recovery accounting). Response: MsgResult with Status "ok"
	// and the output Digest, or Status "crashed" with Wall = virtual time of
	// death, or Status "down" if the worker has already failed.
	MsgAssign
	MsgResult
	// MsgSealPut: worker -> coordinator. Publishes a checkpoint seal into the
	// content-addressed store (Image, Config, Job, Ordinal, Digest; the seal
	// body rides in Val in-process, by content address over the wire).
	// Response: MsgSealAck.
	MsgSealPut
	MsgSealAck
	// MsgSealGet: worker -> coordinator. Fetches the seal at (Image, Config,
	// Job, Ordinal); Ordinal 0 means "the freshest". Response: MsgSealData
	// with the found Ordinal and Digest, or Status "miss".
	MsgSealGet
	MsgSealData
	// MsgStateGet: worker -> coordinator. Fetches prepared state (a kernel
	// snapshot or container template) at (Image, Config). On a miss the
	// coordinator leases the build to the first requester (Status "lease");
	// concurrent requesters block until the leaseholder's MsgStatePut lands.
	// Response: MsgStateData.
	MsgStateGet
	MsgStateData
	// MsgStatePut: worker -> coordinator. Publishes prepared state built
	// under a lease. Response: MsgStateAck.
	MsgStatePut
	MsgStateAck
	// MsgCosign: coordinator -> worker. Asks the worker to co-sign a sealed
	// transparency-log epoch (Digest carries the block hash, Job the epoch
	// index). Response: MsgCosignAck with Sig, or Status "withheld" when the
	// Byzantine plan makes this worker drop co-signatures.
	MsgCosign
	MsgCosignAck
	// MsgErr is the error response to any malformed or unroutable request.
	MsgErr
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgRegisterAck:
		return "register-ack"
	case MsgAssign:
		return "assign"
	case MsgResult:
		return "result"
	case MsgSealPut:
		return "seal-put"
	case MsgSealAck:
		return "seal-ack"
	case MsgSealGet:
		return "seal-get"
	case MsgSealData:
		return "seal-data"
	case MsgStateGet:
		return "state-get"
	case MsgStateData:
		return "state-data"
	case MsgStatePut:
		return "state-put"
	case MsgStateAck:
		return "state-ack"
	case MsgCosign:
		return "cosign"
	case MsgCosignAck:
		return "cosign-ack"
	case MsgErr:
		return "err"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Envelope is the one message shape of the protocol: a flat, fixed field set
// every message type draws from, so the codec is a single function and fuzzing
// the round-trip covers the whole protocol. Unused fields are zero.
type Envelope struct {
	Type MsgType
	From NodeID
	To   NodeID
	// Seq is the per-link message ordinal, stamped by the transport. Fault
	// schedules (message loss, duplication) key on Seq, so faults fire at the
	// same logical instant regardless of host-level interleaving.
	Seq uint64
	// Idem is the idempotency key: a pure hash of the message's semantic
	// identity (type, origin, job, attempt, content address). At-least-once
	// delivery plus receiver-side Idem dedup yields exactly-once effect.
	Idem    uint64
	Job     uint64
	Attempt int32
	Image   uint64
	Config  uint64
	Ordinal int32
	Digest  uint64
	// Wall is a virtual-clock timestamp (ns): time of death in a "crashed"
	// MsgResult, previous attempt's death in a recovery MsgAssign.
	Wall  int64
	Slots int32
	// Doom marks a MsgAssign whose build the farm fault plan kills: the
	// coordinator decides doom at placement time (the plan's KillAtJob-th
	// job placed on the killed node), so the crash site is a pure function
	// of the schedule, not of slot interleaving.
	Doom bool
	// Source is the attestation subject's source Merkle root — distinct from
	// Image, which is the farm-level placement/content hash. Together with
	// Config, Digest (output) and Ring it reconstructs the attest.Statement a
	// result or rebuild response certifies.
	Source uint64
	// Ring is the run's logical flight-recorder digest (attestation field).
	Ring uint64
	// Rebuild marks a MsgAssign as an independent re-execution for the
	// attestation quorum: the worker builds and attests but the result is
	// admission evidence, not farm output.
	Rebuild bool
	Status  string
	// Sig is an ed25519 attestation or epoch co-signature (attest package).
	Sig []byte
	// Val is the in-process body reference (a kernel snapshot, container
	// template or checkpoint seal): the shared pointer itself. The binary
	// codec does not encode it; it carries only the content address (Image,
	// Config, Job, Ordinal, Digest).
	Val any
}

// IdemKey derives the envelope's idempotency key from its semantic identity.
// Seq is deliberately excluded: a retransmission gets a fresh Seq but the
// same Idem, which is exactly what lets the receiver deduplicate it.
func (e *Envelope) IdemKey() uint64 {
	return obs.DigestU64(uint64(e.Type),
		uint64(uint32(e.From)), e.Job, uint64(uint32(e.Attempt)),
		e.Image, e.Config, uint64(uint32(e.Ordinal)), e.Digest)
}

// envWireSize is the fixed portion of the binary encoding; Status and Sig
// are length-prefixed tails.
const envWireSize = 1 + 4 + 4 + 8 + 8 + 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4 + 1 + 8 + 8 + 1

// MarshalBinary encodes the envelope in the compact little-endian wire
// format (Val, the in-process body, is not encoded — see Envelope.Val).
func (e *Envelope) MarshalBinary() []byte {
	buf := make([]byte, 0, envWireSize+2+len(e.Status)+2+len(e.Sig))
	buf = append(buf, byte(e.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, e.Idem)
	buf = binary.LittleEndian.AppendUint64(buf, e.Job)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Attempt))
	buf = binary.LittleEndian.AppendUint64(buf, e.Image)
	buf = binary.LittleEndian.AppendUint64(buf, e.Config)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Ordinal))
	buf = binary.LittleEndian.AppendUint64(buf, e.Digest)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Wall))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Slots))
	var doom byte
	if e.Doom {
		doom = 1
	}
	buf = append(buf, doom)
	buf = binary.LittleEndian.AppendUint64(buf, e.Source)
	buf = binary.LittleEndian.AppendUint64(buf, e.Ring)
	var rebuild byte
	if e.Rebuild {
		rebuild = 1
	}
	buf = append(buf, rebuild)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Status)))
	buf = append(buf, e.Status...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Sig)))
	buf = append(buf, e.Sig...)
	return buf
}

// DecodeEnvelope decodes the binary wire format produced by MarshalBinary.
func DecodeEnvelope(buf []byte) (*Envelope, error) {
	if len(buf) < envWireSize+4 {
		return nil, fmt.Errorf("farm: short envelope: %d bytes", len(buf))
	}
	e := &Envelope{}
	e.Type = MsgType(buf[0])
	e.From = NodeID(binary.LittleEndian.Uint32(buf[1:]))
	e.To = NodeID(binary.LittleEndian.Uint32(buf[5:]))
	e.Seq = binary.LittleEndian.Uint64(buf[9:])
	e.Idem = binary.LittleEndian.Uint64(buf[17:])
	e.Job = binary.LittleEndian.Uint64(buf[25:])
	e.Attempt = int32(binary.LittleEndian.Uint32(buf[33:]))
	e.Image = binary.LittleEndian.Uint64(buf[37:])
	e.Config = binary.LittleEndian.Uint64(buf[45:])
	e.Ordinal = int32(binary.LittleEndian.Uint32(buf[53:]))
	e.Digest = binary.LittleEndian.Uint64(buf[57:])
	e.Wall = int64(binary.LittleEndian.Uint64(buf[65:]))
	e.Slots = int32(binary.LittleEndian.Uint32(buf[73:]))
	e.Doom = buf[77] != 0
	e.Source = binary.LittleEndian.Uint64(buf[78:])
	e.Ring = binary.LittleEndian.Uint64(buf[86:])
	e.Rebuild = buf[94] != 0
	off := envWireSize
	slen := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) < off+slen+2 {
		return nil, fmt.Errorf("farm: envelope truncated in status")
	}
	if slen > 0 {
		e.Status = string(buf[off : off+slen])
	}
	off += slen
	glen := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) != off+glen {
		return nil, fmt.Errorf("farm: envelope length %d, want %d", len(buf), off+glen)
	}
	if glen > 0 {
		e.Sig = append([]byte(nil), buf[off:]...)
	}
	return e, nil
}
