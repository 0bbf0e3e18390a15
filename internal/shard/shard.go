// Package shard is the hash-sharded scatter-gather serving tier: N
// in-process shard nodes, each a complete engine, hold hash-disjoint
// slices of every sharded table, partitioned by the hash of a per-table key
// column (by convention the first schema column). A Cluster fronts the
// nodes with a coordinator that parses each statement once and plans it;
// a shard runs the parsed statement, or one planned from it, and never
// SQL text:
//
//   - a SELECT whose WHERE pins the shard key with `=` routes to exactly
//     one shard (the pinned fast path, counted separately from scatters);
//   - any other read scatters: engine.SplitSelect gives the statement every
//     shard runs and the merge that combines their results through the
//     engine's own SELECT compiler;
//   - an INSERT is checked whole by the engine's row check, then splits its
//     rows by key hash; DDL and model loads broadcast.
//
// Sessions keep a per-shard read-your-writes floor: each write records the
// CSN the owning shard committed, and later reads require that shard's
// engine to have caught up. The floor is checked once, on the DB that
// serves the read (engine.CheckFloor); a shard behind it returns the
// retriable engine.ErrLag rather than stale rows.
package shard

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"

	"tensorbase/internal/table"
)

// ErrUnavailable reports a shard node that is down or died mid-statement.
// It is retriable: the serving layer maps it to a 503 with a Retry-After
// hint.
var ErrUnavailable = errors.New("shard: node unavailable")

// HashValue hashes a shard-key value deterministically (FNV-1a over the
// value's canonical little-endian bytes). The same value always lands on
// the same shard, across processes and restarts.
func HashValue(v table.Value) uint64 {
	h := fnv.New64a()
	var tmp [8]byte
	switch v.Type {
	case table.Int64:
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.Int))
		h.Write(tmp[:])
	case table.Float64:
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.Float))
		h.Write(tmp[:])
	case table.Text:
		h.Write([]byte(v.Str))
	case table.FloatVec:
		for _, f := range v.Vec {
			binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(f))
			h.Write(tmp[:4])
		}
	}
	return h.Sum64()
}

// ShardOf maps a key value to a shard index among n shards.
func ShardOf(v table.Value, n int) int {
	return int(HashValue(v) % uint64(n))
}
