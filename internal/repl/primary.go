package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/fault"
	"tensorbase/internal/wal"
	"tensorbase/internal/wire"
)

// PrimaryOptions configures the shipping side.
type PrimaryOptions struct {
	// RingBytes caps the in-memory retention of encoded commit groups
	// (default 8 MiB). A replica whose applied CSN falls behind the ring's
	// floor is full-resynced from a snapshot — shrink this in tests to
	// force that path.
	RingBytes int
	// HeartbeatInterval is how often an idle stream sends its committed
	// CSN (default 100ms). Replicas treat ~4 missed heartbeats as a dead
	// or partitioned link.
	HeartbeatInterval time.Duration
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	return o
}

// Primary taps its engine's commit protocol and streams every published
// group to any number of attached replica connections. It implements
// engine.Shipper; NewPrimary installs it.
type Primary struct {
	db   *engine.DB
	ring *Ring
	opts PrimaryOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	shipped     atomic.Uint64 // commit groups entered into the ring
	resyncs     atomic.Uint64 // snapshots sent to lagging replicas
	heartbeats  atomic.Uint64
	streamDrops atomic.Uint64 // streams ended by transport errors
	truncates   atomic.Uint64 // WAL truncations observed (ring unaffected)
	active      atomic.Int64  // attached replica streams
}

// NewPrimary wraps db as a replication primary: installs the commit tap
// and starts an empty ring at the current committed horizon. Call Close to
// detach.
func NewPrimary(db *engine.DB, opts PrimaryOptions) *Primary {
	p := &Primary{
		db:    db,
		ring:  NewRing(opts.RingBytes),
		opts:  opts.withDefaults(),
		conns: make(map[net.Conn]struct{}),
	}
	db.SetShipper(p)
	// Commits before the tap never shipped: the floor starts at the
	// committed horizon so replicas below it resync. An Append racing this
	// call bootstraps the floor itself first, making Bootstrap a no-op.
	p.ring.Bootstrap(db.CommittedCSN())
	p.registerMetrics()
	return p
}

func (p *Primary) registerMetrics() {
	r := p.db.Registry()
	r.CounterFunc("tensorbase_repl_shipped_groups_total", "commit groups entered into the replication ring", func() float64 { return float64(p.shipped.Load()) })
	r.CounterFunc("tensorbase_repl_resyncs_total", "full snapshots sent to lagging replicas", func() float64 { return float64(p.resyncs.Load()) })
	r.CounterFunc("tensorbase_repl_heartbeats_total", "heartbeats sent across all streams", func() float64 { return float64(p.heartbeats.Load()) })
	r.CounterFunc("tensorbase_repl_stream_errors_total", "replica streams ended by transport errors", func() float64 { return float64(p.streamDrops.Load()) })
	r.GaugeFunc("tensorbase_repl_streams", "attached replica streams", func() float64 { return float64(p.active.Load()) })
	r.GaugeFunc("tensorbase_repl_ring_floor_csn", "oldest CSN replayable from the ring", func() float64 { return float64(p.ring.Floor()) })
}

// Ship implements engine.Shipper: called inside CSN publication, strictly
// in order. Encoding here is memcpy-bound; a LOAD MODEL group is already
// self-contained (weight blocks and manifest are WAL records), so shipping
// never touches the filesystem.
func (p *Primary) Ship(csn uint64, recs []*wal.Record) {
	enc := make([][]byte, len(recs))
	for i, r := range recs {
		enc[i] = wal.EncodeRecord(r)
	}
	p.ring.Append(csn, enc)
	p.shipped.Add(1)
}

// Truncated implements engine.Shipper. The ring's retention is in-memory
// and unaffected by WAL truncation; buffered groups are self-contained
// (model weights ride as RecBlock records), so a checkpoint invalidates
// nothing the stream still needs.
func (p *Primary) Truncated(throughCSN uint64) { p.truncates.Add(1) }

// Stats is a snapshot of the primary's shipping counters.
type PrimaryStats struct {
	Shipped    uint64
	Resyncs    uint64
	Heartbeats uint64
	Streams    int64
	RingFloor  uint64
}

// Stats returns the primary's shipping counters.
func (p *Primary) Stats() PrimaryStats {
	return PrimaryStats{
		Shipped:    p.shipped.Load(),
		Resyncs:    p.resyncs.Load(),
		Heartbeats: p.heartbeats.Load(),
		Streams:    p.active.Load(),
		RingFloor:  p.ring.Floor(),
	}
}

// Attach serves one replica connection on its own goroutine. link, when
// non-nil, injects transport faults into every outgoing frame (tests).
func (p *Primary) Attach(conn net.Conn, link *fault.Link) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conns[conn] = struct{}{}
	p.mu.Unlock()
	go func() {
		p.active.Add(1)
		defer p.active.Add(-1)
		defer func() {
			conn.Close()
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
		}()
		if err := p.serve(conn, link); err != nil {
			p.streamDrops.Add(1)
		}
	}()
}

// Serve accepts replica connections until the listener closes.
func (p *Primary) Serve(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		p.Attach(conn, nil)
	}
}

// Close detaches the shipper, closes every stream, and wakes blocked
// senders. The engine itself is untouched.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.db.SetShipper(nil)
	p.ring.Close()
	for _, c := range conns {
		c.Close()
	}
}

// serve runs one replica stream: hello, catch-up from the replica's
// applied CSN (or a snapshot resync if the ring evicted it), then the live
// tail with heartbeats while idle. link faults every outgoing frame.
func (p *Primary) serve(conn net.Conn, link *fault.Link) error {
	fc := wire.NewFrameConn(conn, link)
	payload, err := fc.Recv()
	if err != nil {
		return err
	}
	pos, err := decodeHello(payload)
	if err != nil {
		return err
	}
	hb := time.NewTicker(p.opts.HeartbeatInterval)
	defer hb.Stop()
	for {
		recs, gap, ok := p.ring.TryNext(pos + 1)
		switch {
		case gap:
			csn, err := p.sendResync(fc, conn)
			if err != nil {
				return err
			}
			pos = csn
		case ok:
			if err := fc.Send(encodeGroup(&groupMsg{CSN: pos + 1, Recs: recs})); err != nil {
				return err
			}
			pos = pos + 1
		default:
			if p.ring.Closed() {
				return nil
			}
			select {
			case <-p.ring.Pulse():
			case <-hb.C:
				p.heartbeats.Add(1)
				if err := fc.Send(encodeHeartbeat(p.db.CommittedCSN())); err != nil {
					return err
				}
			}
		}
	}
}

// sendResync runs the snapshot handshake: ship the records and model
// manifests, read back the replica's missing-block request, answer with
// exactly those blocks. Every failure mode — the resync frame dropped by
// the fault injector, the replica gone, a block swept between snapshot and
// fetch — surfaces as a stream error here, and the replica's reconnect
// path converges on a fresh hello.
func (p *Primary) sendResync(fc *wire.FrameConn, conn net.Conn) (uint64, error) {
	csn, recs, models, err := p.db.ReplicaSnapshot()
	if err != nil {
		return 0, err
	}
	m := &resyncMsg{CSN: csn, Recs: make([][]byte, len(recs))}
	for i, r := range recs {
		m.Recs[i] = wal.EncodeRecord(r)
	}
	for _, mb := range models {
		m.Models = append(m.Models, modelManifest{Name: mb.Name, Acc: mb.Acc, Manifest: mb.Manifest})
	}
	p.resyncs.Add(1)
	if err := fc.Send(encodeResync(m)); err != nil {
		return 0, err
	}
	// The replica always answers, even with an empty request; the deadline
	// guards against one that died mid-handshake (its conn close also
	// unblocks this read immediately).
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := fc.Recv()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return 0, err
	}
	hashes, err := decodeBlockReq(payload)
	if err != nil {
		return 0, err
	}
	reply := &blocksMsg{Hashes: hashes, Data: make([][]byte, len(hashes))}
	for i, h := range hashes {
		data, ok := p.db.BlockPayload(h)
		if !ok {
			return 0, fmt.Errorf("repl: replica requested unknown block %s", h)
		}
		reply.Data[i] = data
	}
	return csn, fc.Send(encodeBlocks(reply))
}
