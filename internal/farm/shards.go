package farm

import "repro/internal/derive"

// Shards is the coordinator's derivation store: baseline kernel snapshots and
// container templates keyed by derive.Key, checkpoint seals keyed by
// derive.SealKey. It lives at the coordinator — the one node the fault plane
// never kills — so a worker's death cannot take seals down with it, and any
// surviving node can fork any prepared state by content address. The same
// type serves buildsim's in-process caches, so reuse behaves identically
// whether the source is this node or the coordinator.
type Shards = derive.MemStore

// storeShards sizes the coordinator's store: enough that a full complement of
// worker slots rarely meets on one shard lock.
const storeShards = 8

// NewShards builds an unbounded store with n shards (minimum 1).
func NewShards(n int) *Shards { return derive.NewStore(n, 0, nil) }
