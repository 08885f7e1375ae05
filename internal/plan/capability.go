package plan

import "repro/internal/ops"

// Capability classifies how an operator may execute under the streaming
// engine. It used to live in internal/stream; the planner owns it now so
// execution order, fusion groups, and capability placement come from
// one layer.
type Capability int

const (
	// ShardLocal ops (mappers, filters) depend only on the samples of one
	// shard, so shards flow through them independently and concurrently.
	ShardLocal Capability = iota
	// SharedIndex ops are deduplicators whose verdict is a pure per-sample
	// signature (ops.StreamDeduper). They run against a shared signature
	// index consulted in shard order: no barrier, and first-occurrence
	// semantics identical to the batch executor.
	SharedIndex
	// Barrier ops need the whole dataset at once (similarity-based
	// deduplicators). The engine drains every in-flight shard, merges
	// them in order, applies the op, and re-shards the result.
	Barrier
)

// String names the capability for plan rendering.
func (c Capability) String() string {
	switch c {
	case ShardLocal:
		return "shard-local"
	case SharedIndex:
		return "shared-index"
	case Barrier:
		return "barrier"
	}
	return "unknown"
}

// Classify reports how op executes under the streaming engine. Unknown
// operator types classify as Barrier, the conservative default (the
// barrier path surfaces an unsupported-type error from the shared
// runner instead of silently misprocessing).
func Classify(op ops.OP) Capability {
	switch op.(type) {
	case ops.StreamDeduper:
		return SharedIndex
	case ops.Mapper, ops.Filter:
		return ShardLocal
	default:
		return Barrier
	}
}
