// Package shard is the hash-sharded scatter-gather serving tier: N
// in-process shard nodes, each a complete engine, hold hash-disjoint
// slices of every sharded table, partitioned by the hash of a per-table key
// column (by convention the first schema column). A Cluster fronts the
// nodes with a coordinator that plans each statement:
//
//   - a SELECT whose WHERE pins the shard key with `=` routes to exactly
//     one shard (the pinned fast path, counted separately from scatters);
//   - any other read scatters: engine.SplitSelect gives the statement every
//     shard runs and the merge that combines their results through the
//     engine's own SELECT compiler;
//   - an INSERT splits its rows by key hash, DDL and model loads broadcast.
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
	"fmt"
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

// coerceKey converts a literal to the key column's stored type, mirroring
// what the engine does on INSERT, so the coordinator hashes exactly the
// value the shard stores. A literal the engine would reject (or that can
// never equal a stored value, like 1.5 against an INT column) returns an
// error; pinning then falls back to a scatter.
func coerceKey(v table.Value, t table.ColType) (table.Value, error) {
	if v.Type == t {
		return v, nil
	}
	if v.Type == table.Int64 && t == table.Float64 {
		return table.FloatVal(float64(v.Int)), nil
	}
	return table.Value{}, fmt.Errorf("shard: cannot coerce %v key literal to column type %v", v.Type, t)
}
