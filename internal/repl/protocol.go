package repl

import (
	"encoding/binary"
	"fmt"
	"math"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/wire"
)

// Wire protocol. Every message travels as one wire.FrameConn frame, one
// FrameConn per endpoint:
//
//	u32 len | u64 seq | payload | u32 CRC32-C(seq|payload)
//
// payload: u8 msgType | type-specific fields. The framer owns the
// sequence discipline in both directions: a duplicate (seq ≤ last) is
// discarded, a gap, reorder or CRC failure surfaces wire.ErrStreamBroken,
// and the replica resets the stream and reconnects with its applied CSN.
// Every decoder below wraps the same sentinel. The replica→primary
// direction has two messages: the hello, and the block-request that
// answers a resync.
//
// A group message carries one published commit verbatim: the CSN and its
// encoded WAL records. Model weights need no side channel — a LOAD MODEL
// group already contains its new weight blocks as RecBlock records and the
// manifest inside the RecLoadModel record, so the stream ships exactly the
// bytes the primary's own WAL holds, deduplicated at the source (blocks
// the primary already had are not re-logged, hence not re-shipped).
//
// A resync is a handshake: the snapshot message carries the table records
// plus each model's manifest (names + block hashes, no weights); the
// replica answers with the hashes it is missing (always — an empty request
// keeps the exchange symmetric); the primary replies with exactly those
// blocks. The replica verifies each block against its requested hash,
// synthesizes RecBlock records, and applies the whole snapshot as one
// atomic group. A replica that already holds most blocks (it fell behind,
// it is a restarted twin, the models share layers) fetches only the delta.

const (
	msgHello     byte = 1 // replica → primary: u64 appliedCSN
	msgGroup     byte = 2 // u64 csn | encoded WAL records
	msgHeartbeat byte = 3 // u64 committedCSN
	msgResync    byte = 4 // u64 snapCSN | recs | model manifests
	msgBlockReq  byte = 5 // replica → primary: requested block hashes
	msgBlocks    byte = 6 // (hash, payload) pairs
)

// modelManifest is one model riding a resync message: identity plus the
// encoded block manifest. Weight bytes travel separately, on demand, in the
// msgBlockReq/msgBlocks exchange.
type modelManifest struct {
	Name     string
	Acc      float64
	Manifest []byte
}

// groupMsg is one shipped commit group: the published WAL records,
// verbatim.
type groupMsg struct {
	CSN  uint64
	Recs [][]byte
}

func encodeGroup(g *groupMsg) []byte {
	b := []byte{msgGroup}
	b = binary.LittleEndian.AppendUint64(b, g.CSN)
	b = binary.AppendUvarint(b, uint64(len(g.Recs)))
	for _, rec := range g.Recs {
		b = wire.AppendBytes(b, rec)
	}
	return b
}

func decodeGroup(b []byte) (*groupMsg, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("%w: short group", wire.ErrStreamBroken)
	}
	g := &groupMsg{CSN: binary.LittleEndian.Uint64(b[1:9])}
	b = b[9:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<24 {
		return nil, fmt.Errorf("%w: bad group record count", wire.ErrStreamBroken)
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		rec, rest, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		b = rest
		g.Recs = append(g.Recs, rec)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing group bytes", wire.ErrStreamBroken, len(b))
	}
	return g, nil
}

// resyncMsg is a whole snapshot: recs create and fill every table; models
// arrive as manifests whose missing blocks the replica then requests.
type resyncMsg struct {
	CSN    uint64
	Recs   [][]byte
	Models []modelManifest
}

func encodeResync(m *resyncMsg) []byte {
	b := []byte{msgResync}
	b = binary.LittleEndian.AppendUint64(b, m.CSN)
	b = binary.AppendUvarint(b, uint64(len(m.Recs)))
	for _, rec := range m.Recs {
		b = wire.AppendBytes(b, rec)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Models)))
	for _, mb := range m.Models {
		b = wire.AppendBytes(b, []byte(mb.Name))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(mb.Acc))
		b = wire.AppendBytes(b, mb.Manifest)
	}
	return b
}

func decodeResync(b []byte) (*resyncMsg, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("%w: short resync", wire.ErrStreamBroken)
	}
	m := &resyncMsg{CSN: binary.LittleEndian.Uint64(b[1:9])}
	b = b[9:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<24 {
		return nil, fmt.Errorf("%w: bad resync record count", wire.ErrStreamBroken)
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		rec, rest, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		b = rest
		m.Recs = append(m.Recs, rec)
	}
	n, sz = binary.Uvarint(b)
	if sz <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("%w: bad resync model count", wire.ErrStreamBroken)
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		name, rest, err := wire.ReadBytes(b)
		if err != nil {
			return nil, err
		}
		if len(rest) < 8 {
			return nil, fmt.Errorf("%w: truncated model accuracy", wire.ErrStreamBroken)
		}
		acc := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		data, rest, err := wire.ReadBytes(rest[8:])
		if err != nil {
			return nil, err
		}
		b = rest
		m.Models = append(m.Models, modelManifest{Name: string(name), Acc: acc, Manifest: data})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing resync bytes", wire.ErrStreamBroken, len(b))
	}
	return m, nil
}

// blockReq is the replica's half of the resync block fetch: the hashes of
// every manifest-referenced block it does not hold. Always sent, even
// empty, so the primary's read after a resync never hangs on a fully
// deduplicated replica.
func encodeBlockReq(hashes []blockstore.Hash) []byte {
	b := []byte{msgBlockReq}
	b = binary.AppendUvarint(b, uint64(len(hashes)))
	for _, h := range hashes {
		b = append(b, h[:]...)
	}
	return b
}

func decodeBlockReq(b []byte) ([]blockstore.Hash, error) {
	if len(b) < 1 || b[0] != msgBlockReq {
		return nil, fmt.Errorf("%w: bad block request", wire.ErrStreamBroken)
	}
	b = b[1:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("%w: bad block request count", wire.ErrStreamBroken)
	}
	b = b[sz:]
	if uint64(len(b)) != n*uint64(len(blockstore.Hash{})) {
		return nil, fmt.Errorf("%w: truncated block request", wire.ErrStreamBroken)
	}
	hashes := make([]blockstore.Hash, n)
	for i := range hashes {
		copy(hashes[i][:], b[:len(blockstore.Hash{})])
		b = b[len(blockstore.Hash{}):]
	}
	return hashes, nil
}

// blocksMsg is the primary's reply: the requested blocks as (hash, encoded
// payload) pairs, in request order.
type blocksMsg struct {
	Hashes []blockstore.Hash
	Data   [][]byte
}

func encodeBlocks(m *blocksMsg) []byte {
	b := []byte{msgBlocks}
	b = binary.AppendUvarint(b, uint64(len(m.Hashes)))
	for i, h := range m.Hashes {
		b = append(b, h[:]...)
		b = wire.AppendBytes(b, m.Data[i])
	}
	return b
}

func decodeBlocks(b []byte) (*blocksMsg, error) {
	if len(b) < 1 || b[0] != msgBlocks {
		return nil, fmt.Errorf("%w: bad blocks message", wire.ErrStreamBroken)
	}
	m := &blocksMsg{}
	b = b[1:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("%w: bad blocks count", wire.ErrStreamBroken)
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		if len(b) < len(blockstore.Hash{}) {
			return nil, fmt.Errorf("%w: truncated block hash", wire.ErrStreamBroken)
		}
		var h blockstore.Hash
		copy(h[:], b[:len(h)])
		data, rest, err := wire.ReadBytes(b[len(h):])
		if err != nil {
			return nil, err
		}
		b = rest
		m.Hashes = append(m.Hashes, h)
		m.Data = append(m.Data, data)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing blocks bytes", wire.ErrStreamBroken, len(b))
	}
	return m, nil
}

func encodeHello(applied uint64) []byte {
	b := []byte{msgHello}
	return binary.LittleEndian.AppendUint64(b, applied)
}

func decodeHello(b []byte) (uint64, error) {
	if len(b) != 9 || b[0] != msgHello {
		return 0, fmt.Errorf("%w: bad hello", wire.ErrStreamBroken)
	}
	return binary.LittleEndian.Uint64(b[1:9]), nil
}

func encodeHeartbeat(csn uint64) []byte {
	b := []byte{msgHeartbeat}
	return binary.LittleEndian.AppendUint64(b, csn)
}

func decodeHeartbeat(b []byte) (csn uint64, err error) {
	if len(b) != 9 {
		return 0, fmt.Errorf("%w: bad heartbeat", wire.ErrStreamBroken)
	}
	return binary.LittleEndian.Uint64(b[1:9]), nil
}
