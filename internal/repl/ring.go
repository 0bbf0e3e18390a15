// Package repl is the log-shipping replication tier: a primary taps the
// engine's commit protocol (engine.Shipper), retains recent commit groups
// in an in-memory ring, and streams them over a CRC-framed transport to
// replicas that replay each group into their own engine and serve snapshot
// reads at their applied CSN. A replica that falls behind the ring's
// retention — the shipping-level analogue of a checkpoint truncating the
// WAL under it — full-resyncs from a logical snapshot instead.
//
// The stream runs over wire.FrameConn: duplicates are discarded, and any
// gap, reorder, or CRC failure resets the stream and the replica
// reconnects with its applied CSN, so transport faults (see fault.Link)
// degrade to retries, never to divergence. Correctness flows from the
// engine's own commit protocol: groups apply through the replica's WAL
// with the same commit-record gating recovery uses, so a replica killed
// mid-apply comes back to its last applied CSN and the stream re-delivers.
package repl

import (
	"sync"
)

// group is one published commit: the CSN and its encoded WAL records
// (shared with the sender goroutines; never mutated after append).
type group struct {
	csn   uint64
	recs  [][]byte // wal.EncodeRecord payloads
	bytes int
}

// Ring retains recent commit groups for catch-up replay. Eviction is
// byte-capped: the floor rises as old groups fall off, and a replica whose
// applied CSN sank below the floor must resync. The ring orders groups by
// CSN with no gaps — the engine ships every CSN, aborts included (as
// empty groups).
type Ring struct {
	mu       sync.Mutex
	pulse    chan struct{} // closed and replaced on every Append/Close
	groups   []group       // groups[i].csn == floor+1+i
	floor    uint64        // every csn ≤ floor has been evicted (or never buffered)
	size     int
	maxBytes int
	booted   bool
	closed   bool
}

// NewRing returns a ring retaining up to maxBytes of encoded records
// (default 8 MiB if maxBytes ≤ 0).
func NewRing(maxBytes int) *Ring {
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	return &Ring{maxBytes: maxBytes, pulse: make(chan struct{})}
}

// Bootstrap sets the ring's floor before any group arrives: a primary at
// committed CSN c starts its ring at floor c, so replicas already at c
// need nothing and replicas below c resync. Idempotent; the first Append
// also bootstraps implicitly.
func (r *Ring) Bootstrap(csn uint64) {
	r.mu.Lock()
	if !r.booted {
		r.floor = csn
		r.booted = true
	}
	r.mu.Unlock()
}

// Append adds the next commit group. CSNs must arrive in order (the
// engine's publish guarantees it); the first Append bootstraps the floor
// to csn-1.
func (r *Ring) Append(csn uint64, recs [][]byte) {
	n := 0
	for _, b := range recs {
		n += len(b)
	}
	r.mu.Lock()
	if !r.booted {
		r.floor = csn - 1
		r.booted = true
	}
	r.groups = append(r.groups, group{csn: csn, recs: recs, bytes: n})
	r.size += n
	for r.size > r.maxBytes && len(r.groups) > 1 {
		r.size -= r.groups[0].bytes
		r.floor = r.groups[0].csn
		r.groups = r.groups[1:]
	}
	if !r.closed {
		close(r.pulse)
		r.pulse = make(chan struct{})
	}
	r.mu.Unlock()
}

// Floor returns the highest evicted CSN: a subscriber must have applied at
// least Floor to replay from the ring.
func (r *Ring) Floor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.floor
}

// Head returns the newest buffered CSN (== Floor before any Append).
func (r *Ring) Head() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.groups) == 0 {
		return r.floor
	}
	return r.groups[len(r.groups)-1].csn
}

// TryNext returns the group for csn if buffered. gap=true means csn fell
// at or below the floor — the subscriber must resync. With neither ok nor
// gap, the group has not been published yet: wait on Pulse and retry.
func (r *Ring) TryNext(csn uint64) (recs [][]byte, gap bool, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.booted && csn <= r.floor {
		return nil, true, false
	}
	if n := len(r.groups); n > 0 && csn >= r.groups[0].csn && csn <= r.groups[n-1].csn {
		i := int(csn - r.groups[0].csn)
		return r.groups[i].recs, false, true
	}
	return nil, false, false
}

// Pulse returns a channel closed at the next Append or Close — the wait
// handle for a sender that drained the ring.
func (r *Ring) Pulse() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pulse
}

// Closed reports whether the ring was shut down.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Close wakes every Pulse waiter permanently: the closed channel stays in
// place, so Pulse never blocks again after Close.
func (r *Ring) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.pulse)
	}
	r.mu.Unlock()
}
