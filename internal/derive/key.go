package derive

// Key is the content address of one piece of prepared state: the image
// content hash and the behaviour-relevant config hash. It is THE cache-key
// semantics of the whole system — every instance of the derivation store
// (buildsim's, the farm coordinator's) and the incremental-rebuild planner
// all derive their keys through KeyFor, so no two cache layers can drift in
// what "the same prepared state" means.
//
// The Config slot is zero for baseline kernel snapshots: a prepared
// kernel.Snapshot depends only on the image (the per-run BootConfig carries
// everything else), while a core.Template additionally bakes in the
// container policy, so its slot carries core.ConfigHash. The config hash
// folds in every hashed row of core.Config.Off, incremental included, so
// builds on either side of an ablation can never share a cache line.
type Key struct {
	Image  uint64
	Config uint64
}

// KeyFor derives the canonical cache key for prepared state built from an
// image with the given content hash under the given config hash (zero for
// config-free state like baseline kernel snapshots).
func KeyFor(imageHash, configHash uint64) Key {
	return Key{Image: imageHash, Config: configHash}
}

// Hash folds the key into one 64-bit content address, used for sharding and
// for the farm protocol's idempotency keys.
func (k Key) Hash() uint64 {
	return DigestU64(0, k.Image, k.Config)
}

// Shard maps the key onto one of n cache shards.
func (k Key) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.Hash() % uint64(n))
}

// SealKey addresses one checkpoint seal in the derivation store: the
// prepared-state key the seal belongs to, the job that sealed it, and the
// seal's 1-based ordinal within that job's run.
type SealKey struct {
	State   Key
	Job     uint64
	Ordinal int
}
