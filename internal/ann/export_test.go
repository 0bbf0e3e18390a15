package ann

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// GraphHash digests h's whole graph: the entry point, the top level, and
// every node's id, vector bits and per-layer neighbour lists in order. Two
// builds hash equal only if they linked exactly the same edges.
func GraphHash(h *HNSW) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		f.Write(b[:])
	}
	put(uint64(h.entryPoint))
	put(uint64(h.maxLevel))
	put(uint64(len(h.nodes)))
	for _, n := range h.nodes {
		put(uint64(n.id))
		for _, x := range n.vec {
			put(uint64(math.Float32bits(x)))
		}
		put(uint64(len(n.neighbors)))
		for _, adj := range n.neighbors {
			put(uint64(len(adj)))
			for _, nb := range adj {
				put(uint64(nb))
			}
		}
	}
	return f.Sum64()
}
