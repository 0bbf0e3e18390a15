package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict is a Link's per-frame decision. Exactly one of Drop/Dup/Hold is
// set (or none, for clean delivery); Delay may accompany any non-drop
// verdict.
type Verdict struct {
	// Drop discards the frame entirely (also the partition behaviour).
	Drop bool
	// Dup delivers the frame twice back to back.
	Dup bool
	// Hold buffers the frame and releases it after the next frame — a
	// one-slot reorder, the minimal out-of-order delivery a stream
	// protocol must reject.
	Hold bool
	// Delay is an artificial in-flight latency to sleep before delivery.
	Delay time.Duration
}

// Link models a lossy, reorderable network link for the replication
// stream. The sender calls Next for every outgoing frame and acts on the
// verdict; all randomness comes from one seeded PRNG so a chaos schedule
// is exactly reproducible. A nil *Link is a perfect network.
//
// Unlike Injector's named fault points, a Link is owned by a single
// connection: drop/reorder/duplicate faults are properties of a wire, not
// of a code location, and a partition must atomically black-hole every
// frame on that wire until healed.
type Link struct {
	mu     sync.Mutex
	rng    *rand.Rand
	drop   float64
	dup    float64
	hold   float64
	delayP float64
	delayD time.Duration

	partitioned atomic.Bool

	delivered  atomic.Uint64
	dropped    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
	delayed    atomic.Uint64
}

// NewLink returns a Link whose fault schedule is driven by a PRNG seeded
// with seed. With no probabilities set it delivers everything cleanly.
func NewLink(seed int64) *Link {
	return &Link{rng: rand.New(rand.NewSource(seed))}
}

// SetDrop makes each frame be discarded with probability p.
func (l *Link) SetDrop(p float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drop = p
}

// SetDuplicate makes each delivered frame be sent twice with probability p.
func (l *Link) SetDuplicate(p float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dup = p
}

// SetReorder makes each frame be held one slot (delivered after its
// successor) with probability p.
func (l *Link) SetReorder(p float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hold = p
}

// SetDelay makes each frame sleep d before delivery with probability p.
func (l *Link) SetDelay(p float64, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delayP, l.delayD = p, d
}

// SetPartitioned black-holes the link (every frame dropped, regardless of
// probabilities) until called again with false. Heartbeat loss and stream
// timeouts, not this call, are how the endpoints find out.
func (l *Link) SetPartitioned(p bool) {
	if l == nil {
		return
	}
	l.partitioned.Store(p)
}

// Partitioned reports whether the link is currently black-holed.
func (l *Link) Partitioned() bool {
	return l != nil && l.partitioned.Load()
}

// Next draws the verdict for one outgoing frame and updates the counters.
// Nil link: clean delivery.
func (l *Link) Next() Verdict {
	if l == nil {
		return Verdict{}
	}
	if l.partitioned.Load() {
		l.dropped.Add(1)
		return Verdict{Drop: true}
	}
	l.mu.Lock()
	var v Verdict
	switch {
	case l.drop > 0 && l.rng.Float64() < l.drop:
		v.Drop = true
	case l.hold > 0 && l.rng.Float64() < l.hold:
		v.Hold = true
	case l.dup > 0 && l.rng.Float64() < l.dup:
		v.Dup = true
	}
	if !v.Drop && l.delayP > 0 && l.rng.Float64() < l.delayP {
		v.Delay = l.delayD
	}
	l.mu.Unlock()

	switch {
	case v.Drop:
		l.dropped.Add(1)
	case v.Hold:
		l.reordered.Add(1)
	case v.Dup:
		l.duplicated.Add(1)
		l.delivered.Add(2)
	default:
		l.delivered.Add(1)
	}
	if v.Delay > 0 {
		l.delayed.Add(1)
	}
	return v
}

// Delivered returns how many frames reached the far end (duplicates count
// twice, held frames count when released).
func (l *Link) Delivered() uint64 {
	if l == nil {
		return 0
	}
	// A held frame is counted at release time by the sender calling
	// Released; see below. Reordered frames that were released show up in
	// delivered via Released.
	return l.delivered.Load()
}

// Released records that a previously held (reordered) frame was finally
// delivered.
func (l *Link) Released() {
	if l == nil {
		return
	}
	l.delivered.Add(1)
}

// Dropped returns how many frames the link discarded (including during
// partitions).
func (l *Link) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Duplicated returns how many frames were delivered twice.
func (l *Link) Duplicated() uint64 {
	if l == nil {
		return 0
	}
	return l.duplicated.Load()
}

// Reordered returns how many frames were held for one-slot reordering.
func (l *Link) Reordered() uint64 {
	if l == nil {
		return 0
	}
	return l.reordered.Load()
}

// Delayed returns how many frames were artificially delayed.
func (l *Link) Delayed() uint64 {
	if l == nil {
		return 0
	}
	return l.delayed.Load()
}

// String summarises the link's delivery counters (chaos-test logging).
func (l *Link) String() string {
	if l == nil {
		return "link(perfect)"
	}
	return fmt.Sprintf("link(delivered=%d dropped=%d dup=%d reordered=%d delayed=%d)",
		l.Delivered(), l.Dropped(), l.Duplicated(), l.Reordered(), l.Delayed())
}
