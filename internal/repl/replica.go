package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tensorbase/internal/blockstore"
	"tensorbase/internal/engine"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/retry"
	"tensorbase/internal/wal"
	"tensorbase/internal/wire"
)

// ReplicaOptions configures the receiving side.
type ReplicaOptions struct {
	// Name labels this replica in router decisions and errors.
	Name string
	// Dial opens a connection to the primary. Required. Tests wire it to
	// net.Pipe + Primary.Attach; production uses net.Dial.
	Dial func() (net.Conn, error)
	// HeartbeatInterval must match the primary's (default 100ms); a stream
	// silent for 4 intervals is declared dead and the replica reconnects.
	HeartbeatInterval time.Duration
	// Retry shapes the reconnect backoff (defaults: 10ms base, 1s cap).
	Retry retry.Policy
	// Engine configures the replica's own database; Follower is forced on.
	Engine engine.Options
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.Name == "" {
		o.Name = "replica"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	return o
}

// Replica maintains a follower engine fed from the primary's commit
// stream. It reconnects forever (with capped backoff) until Close: every
// transport fault — drop, reorder, partition, corruption — lands in one
// recovery path, "reset the stream, reconnect, re-hello with the applied
// CSN". Reads are served from the follower engine at its applied CSN.
type Replica struct {
	name string
	path string
	eng  engine.Options
	opts ReplicaOptions

	db atomic.Pointer[engine.DB]

	lastMsg    atomic.Int64 // unix nanos of the last verified frame
	connected  atomic.Bool
	primaryCSN atomic.Uint64 // committed horizon last advertised by the primary

	applies    atomic.Uint64 // commit groups applied
	resyncs    atomic.Uint64 // snapshot resyncs applied
	resets     atomic.Uint64 // streams reset (transport fault or apply error)
	reconnects atomic.Uint64

	cancel context.CancelFunc
	tok    *lifecycle.Token
	unwat  func()
	wg     sync.WaitGroup

	mu     sync.Mutex
	conn   net.Conn
	closed bool
	dead   error // set when the follower engine cannot be reopened
}

// NewReplica opens (or creates) the follower database at path and starts
// the replication loop. The returned replica is immediately usable for
// reads at whatever CSN its local state recovered to.
func NewReplica(path string, opts ReplicaOptions) (*Replica, error) {
	if opts.Dial == nil {
		return nil, errors.New("repl: ReplicaOptions.Dial is required")
	}
	opts = opts.withDefaults()
	eng := opts.Engine
	eng.Follower = true
	db, err := engine.Open(path, eng)
	if err != nil {
		return nil, fmt.Errorf("repl: opening follower db: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tok, unwat := lifecycle.Watch(ctx)
	r := &Replica{
		name:   opts.Name,
		path:   path,
		eng:    eng,
		opts:   opts,
		cancel: cancel,
		tok:    tok,
		unwat:  unwat,
	}
	r.db.Store(db)
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// DB returns the follower engine currently serving reads. The pointer can
// change across an apply-error crash/reopen cycle — callers must not cache
// it beyond one query.
func (r *Replica) DB() *engine.DB { return r.db.Load() }

// Name returns the replica's label.
func (r *Replica) Name() string { return r.name }

// AppliedCSN returns the snapshot horizon this replica serves.
func (r *Replica) AppliedCSN() uint64 {
	if db := r.db.Load(); db != nil {
		return db.CommittedCSN()
	}
	return 0
}

// PrimaryCSN returns the primary's committed horizon as of the last
// heartbeat — AppliedCSN lag against it is the health signal.
func (r *Replica) PrimaryCSN() uint64 { return r.primaryCSN.Load() }

// Healthy reports whether the replica is connected and heard from the
// primary within the staleness window (4 heartbeat intervals). A replica
// that is partitioned, killed, or resyncing reads false and the router
// steers around it.
func (r *Replica) Healthy() bool {
	r.mu.Lock()
	closed, dead := r.closed, r.dead
	r.mu.Unlock()
	if closed || dead != nil || !r.connected.Load() {
		return false
	}
	last := r.lastMsg.Load()
	return last > 0 && time.Since(time.Unix(0, last)) < 4*r.opts.HeartbeatInterval
}

// ReplicaStats is a snapshot of the replica's stream counters.
type ReplicaStats struct {
	Applies    uint64
	Resyncs    uint64
	Resets     uint64
	Reconnects uint64
	Applied    uint64
	Primary    uint64
	Healthy    bool
}

// Stats returns the replica's stream counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Applies:    r.applies.Load(),
		Resyncs:    r.resyncs.Load(),
		Resets:     r.resets.Load(),
		Reconnects: r.reconnects.Load(),
		Applied:    r.AppliedCSN(),
		Primary:    r.primaryCSN.Load(),
		Healthy:    r.Healthy(),
	}
}

// Close stops the replication loop and closes the follower engine.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	r.cancel()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	r.unwat()
	if db := r.db.Load(); db != nil {
		return db.Close()
	}
	return nil
}

// Kill simulates a replica process death: the engine is crashed (no
// checkpoint, no sync) and the loop stops. The on-disk state stays for a
// later NewReplica to recover. Test hook.
func (r *Replica) Kill() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	r.cancel()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	r.unwat()
	if db := r.db.Load(); db != nil {
		return db.Crash()
	}
	return nil
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *Replica) setConn(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conn = c
	return true
}

// run is the replica's life: dial, stream, reset, backoff, repeat.
func (r *Replica) run() {
	defer r.wg.Done()
	pol := r.opts.Retry
	failures := 0
	for !r.isClosed() {
		conn, err := r.opts.Dial()
		if err != nil {
			failures++
			if retry.Sleep(r.tok, pol.Backoff(failures)) != nil {
				return
			}
			continue
		}
		if !r.setConn(conn) {
			conn.Close()
			return
		}
		r.reconnects.Add(1)
		failures = 0
		err = r.stream(conn)
		conn.Close()
		r.connected.Store(false)
		r.setConn(nil)
		if r.isClosed() {
			return
		}
		r.mu.Lock()
		dead := r.dead
		r.mu.Unlock()
		if dead != nil {
			return
		}
		if err != nil {
			r.resets.Add(1)
		}
		failures++
		if retry.Sleep(r.tok, pol.Backoff(failures)) != nil {
			return
		}
	}
}

// stream runs one connection: hello with the applied CSN, then apply
// frames until the link breaks or goes silent. The FrameConn has already
// dropped duplicates and turned gaps, reorders and corruption into
// wire.ErrStreamBroken.
func (r *Replica) stream(conn net.Conn) error {
	fc := wire.NewFrameConn(conn, nil)
	if err := fc.Send(encodeHello(r.AppliedCSN())); err != nil {
		return err
	}
	r.connected.Store(true)
	r.lastMsg.Store(time.Now().UnixNano())
	stale := 4 * r.opts.HeartbeatInterval
	for {
		conn.SetReadDeadline(time.Now().Add(stale))
		payload, err := fc.Recv()
		if err != nil {
			return err
		}
		r.lastMsg.Store(time.Now().UnixNano())
		switch payload[0] {
		case msgHeartbeat:
			csn, err := decodeHeartbeat(payload)
			if err != nil {
				return err
			}
			r.primaryCSN.Store(csn)
		case msgGroup:
			g, err := decodeGroup(payload)
			if err != nil {
				return err
			}
			if err := r.applyGroup(g); err != nil {
				return err
			}
			if g.CSN > r.primaryCSN.Load() {
				r.primaryCSN.Store(g.CSN)
			}
		case msgResync:
			m, err := decodeResync(payload)
			if err != nil {
				return err
			}
			if err := r.applyResync(fc, conn, m); err != nil {
				return err
			}
			if m.CSN > r.primaryCSN.Load() {
				r.primaryCSN.Store(m.CSN)
			}
		default:
			return fmt.Errorf("%w: unknown message type %d", wire.ErrStreamBroken, payload[0])
		}
	}
}

func (r *Replica) applyGroup(g *groupMsg) error {
	db := r.db.Load()
	recs := make([]*wal.Record, len(g.Recs))
	for i, rb := range g.Recs {
		rec, err := wal.DecodeRecord(rb)
		if err != nil {
			return fmt.Errorf("%w: corrupt record in group %d: %v", wire.ErrStreamBroken, g.CSN, err)
		}
		recs[i] = rec
	}
	if err := db.ApplyReplicated(g.CSN, recs, false); err != nil {
		return r.crashReopen(fmt.Errorf("applying group %d: %w", g.CSN, err))
	}
	r.applies.Add(1)
	return nil
}

// applyResync finishes the resync handshake and applies the snapshot. The
// manifests name every weight block the snapshot's models need; only the
// ones this replica doesn't already hold are requested, and the fetched
// bytes are verified against their content hashes before anything touches
// the engine. The synthesized RecBlock records go through ApplyReplicated
// with the snapshot, so the replica's own WAL is self-contained: a crash
// mid-apply recovers without the primary.
func (r *Replica) applyResync(fc *wire.FrameConn, conn net.Conn, m *resyncMsg) error {
	db := r.db.Load()
	manifests := make([][]byte, len(m.Models))
	for i, mb := range m.Models {
		manifests[i] = mb.Manifest
	}
	missing, err := db.MissingBlocks(manifests)
	if err != nil {
		return fmt.Errorf("%w: resync %d: %v", wire.ErrStreamBroken, m.CSN, err)
	}
	if err := fc.Send(encodeBlockReq(missing)); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(4 * r.opts.HeartbeatInterval))
	payload, err := fc.Recv()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	r.lastMsg.Store(time.Now().UnixNano())
	blocks, err := decodeBlocks(payload)
	if err != nil {
		return err
	}
	want := make(map[blockstore.Hash]bool, len(missing))
	for _, h := range missing {
		want[h] = true
	}
	recs := make([]*wal.Record, 0, len(blocks.Data)+len(m.Recs)+len(m.Models))
	for i, raw := range blocks.Data {
		data, err := blockstore.Decode(raw)
		if err != nil {
			return fmt.Errorf("%w: resync block: %v", wire.ErrStreamBroken, err)
		}
		h := blockstore.HashOf(data)
		if h != blocks.Hashes[i] || !want[h] {
			return fmt.Errorf("%w: resync block %s not requested or content mismatch", wire.ErrStreamBroken, blocks.Hashes[i])
		}
		delete(want, h)
		recs = append(recs, &wal.Record{Type: wal.RecBlock, CSN: m.CSN, Data: raw})
	}
	if len(want) != 0 {
		return fmt.Errorf("%w: resync reply missing %d requested blocks", wire.ErrStreamBroken, len(want))
	}
	for _, rb := range m.Recs {
		rec, err := wal.DecodeRecord(rb)
		if err != nil {
			return fmt.Errorf("%w: corrupt record in resync %d: %v", wire.ErrStreamBroken, m.CSN, err)
		}
		recs = append(recs, rec)
	}
	for _, mb := range m.Models {
		recs = append(recs, &wal.Record{
			Type:  wal.RecLoadModel,
			CSN:   m.CSN,
			Model: mb.Name,
			Acc:   mb.Acc,
			Data:  mb.Manifest,
		})
	}
	if err := db.ApplyReplicated(m.CSN, recs, true); err != nil {
		return r.crashReopen(fmt.Errorf("applying resync %d: %w", m.CSN, err))
	}
	r.resyncs.Add(1)
	return nil
}

// crashReopen is ApplyReplicated's error contract: the follower's state may
// hold a half-applied group, so crash it and recover — the WAL's
// commit-record gating rolls the partial group back, and the next hello
// reports the recovered applied CSN so the stream re-delivers. If even the
// reopen fails the replica is marked dead and drops out of rotation.
func (r *Replica) crashReopen(cause error) error {
	old := r.db.Load()
	old.Crash()
	db, err := engine.Open(r.path, r.eng)
	if err != nil {
		r.mu.Lock()
		r.dead = fmt.Errorf("repl: follower reopen after %v failed: %w", cause, err)
		r.mu.Unlock()
		return r.dead
	}
	r.db.Store(db)
	return fmt.Errorf("%w: %v", wire.ErrStreamBroken, cause)
}
