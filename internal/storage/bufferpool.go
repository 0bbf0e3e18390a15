package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoFreeFrames is returned when every frame in the pool is pinned.
var ErrNoFreeFrames = errors.New("storage: all buffer frames pinned")

// Frame is a buffer-pool slot holding one page.
type Frame struct {
	id    PageID
	data  [PageSize]byte
	pins  int
	dirty bool
	// refBit marks recent use under the Clock policy.
	refBit bool
	// lruPrev/lruNext link unpinned frames into the pool's intrusive LRU
	// list (head = least recently used). Intrusive links instead of
	// container/list keep the hot fetch/unpin cycle allocation-free.
	lruPrev, lruNext *Frame
	inLRU            bool
	// ready is closed once the frame's bytes are valid. A fetcher that
	// hits a frame whose disk read is still in flight (a concurrent miss
	// on the same page) pins it and waits on ready instead of returning
	// half-read bytes.
	ready chan struct{}
	// loadErr records a failed disk read; waiters observe it after ready
	// closes and release their pins instead of using the frame.
	loadErr error
}

// ID returns the page id currently held by the frame.
func (f *Frame) ID() PageID { return f.id }

// Data returns the frame's page bytes. Valid only while pinned.
func (f *Frame) Data() []byte { return f.data[:] }

// Page returns a slotted-page view of the frame. Valid only while pinned.
func (f *Frame) Page() *Page { return NewPage(f.data[:]) }

// Record returns the record in the given slot without allocating a page
// wrapper — the zero-alloc read path block-streaming loops use. The slice
// aliases the frame and is valid only while pinned. A non-nil error means
// the slot directory is structurally corrupt (see Page.Record).
func (f *Frame) Record(slot int) ([]byte, bool, error) {
	p := Page{buf: f.data[:]}
	return p.Record(slot)
}

// PoolStats reports buffer pool activity; Evictions counts pages written
// back or dropped to make room — the disk-spilling behaviour that lets the
// relation-centric representation run tensors larger than memory.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	DirtyOut  uint64 // evictions that required a write-back
}

// Policy selects the pool's page-replacement algorithm.
type Policy int

// Replacement policies.
const (
	// LRU evicts the least recently unpinned page (default).
	LRU Policy = iota
	// Clock sweeps a hand over the frames, giving each referenced page a
	// second chance — cheaper bookkeeping per hit than LRU.
	Clock
)

// BufferPool caches pages in a fixed number of frames with a configurable
// replacement policy. Fetched pages are pinned and must be unpinned
// (marking dirty if modified). It is safe for concurrent use.
type BufferPool struct {
	mu     sync.Mutex
	disk   *DiskManager
	policy Policy
	frames []*Frame
	table  map[PageID]*Frame
	free   []*Frame
	// lruHead/lruTail bound the intrusive list of unpinned frames,
	// head = least recently used (LRU policy).
	lruHead, lruTail *Frame
	hand             int // sweep position (Clock policy)
	stats            PoolStats
}

// NewBufferPool returns an LRU pool of n frames over disk.
func NewBufferPool(disk *DiskManager, n int) *BufferPool {
	return NewBufferPoolWithPolicy(disk, n, LRU)
}

// NewBufferPoolWithPolicy returns a pool of n frames with the given
// replacement policy.
func NewBufferPoolWithPolicy(disk *DiskManager, n int, policy Policy) *BufferPool {
	if n < 1 {
		panic("storage: buffer pool needs at least one frame")
	}
	p := &BufferPool{
		disk:   disk,
		policy: policy,
		frames: make([]*Frame, n),
		table:  make(map[PageID]*Frame, n),
	}
	for i := range p.frames {
		f := &Frame{id: InvalidPageID}
		p.frames[i] = f
		p.free = append(p.free, f)
	}
	return p
}

// Size returns the number of frames.
func (p *BufferPool) Size() int { return len(p.frames) }

// Pinned returns the number of frames with a non-zero pin count. A query
// that finished — successfully, with an error, or cancelled — must leave
// this at its pre-query value; leak tests assert it returns to zero.
func (p *BufferPool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of pool counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// readyClosed is shared by frames whose bytes are valid from birth
// (freshly formatted pages).
var readyClosed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Fetch pins page id into a frame, reading it from disk on a miss. On a
// concurrent miss — another fetcher is mid-read of the same page — Fetch
// waits for that read to complete rather than observing partial bytes, so
// parallel block workers can hammer the same operand pages safely.
func (p *BufferPool) Fetch(id PageID) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.table[id]; ok {
		p.stats.Hits++
		p.pinLocked(f)
		ready := f.ready
		p.mu.Unlock()
		<-ready
		// loadErr was written before ready closed, so this read is ordered.
		if err := f.loadErr; err != nil {
			p.mu.Lock()
			p.dropFailedPinLocked(f)
			p.mu.Unlock()
			return nil, err
		}
		return f, nil
	}
	p.stats.Misses++
	f, err := p.victimLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.loadErr = nil
	f.ready = make(chan struct{})
	p.table[id] = f
	p.mu.Unlock()
	// Read outside the lock: the frame is pinned so it cannot be evicted,
	// and concurrent fetchers of the same page wait on f.ready.
	rerr := p.disk.Read(id, f.data[:])
	p.mu.Lock()
	defer p.mu.Unlock()
	if rerr != nil {
		f.loadErr = rerr
		close(f.ready)
		p.dropFailedPinLocked(f)
		return nil, rerr
	}
	close(f.ready)
	return f, nil
}

// dropFailedPinLocked releases one pin on a frame whose load failed; the
// last pin out removes it from the table so the page can be retried.
func (p *BufferPool) dropFailedPinLocked(f *Frame) {
	f.pins--
	if f.pins > 0 {
		return
	}
	delete(p.table, f.id)
	f.id = InvalidPageID
	f.dirty = false
	f.loadErr = nil
	p.free = append(p.free, f)
}

// NewPage allocates a fresh page on disk, pins it, and formats it as an
// empty slotted page.
func (p *BufferPool) NewPage() (*Frame, error) {
	id, err := p.disk.Allocate()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	f, err := p.victimLocked()
	if err != nil {
		p.mu.Unlock()
		// No frame took the page: hand it back, or it leaks.
		return nil, errors.Join(err, p.disk.Free(id))
	}
	f.id = id
	f.pins = 1
	f.dirty = true
	f.loadErr = nil
	f.ready = readyClosed
	// Format before publishing the unlock: the frame is in the table, so a
	// hit must never observe pre-format bytes.
	InitPage(f.data[:])
	p.table[id] = f
	p.mu.Unlock()
	return f, nil
}

// lruPushBackLocked appends f as the most recently used unpinned frame.
func (p *BufferPool) lruPushBackLocked(f *Frame) {
	f.lruPrev = p.lruTail
	f.lruNext = nil
	if p.lruTail != nil {
		p.lruTail.lruNext = f
	} else {
		p.lruHead = f
	}
	p.lruTail = f
	f.inLRU = true
}

// lruRemoveLocked unlinks f from the LRU list if present.
func (p *BufferPool) lruRemoveLocked(f *Frame) {
	if !f.inLRU {
		return
	}
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else {
		p.lruHead = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else {
		p.lruTail = f.lruPrev
	}
	f.lruPrev, f.lruNext = nil, nil
	f.inLRU = false
}

// pinLocked pins an already-resident frame.
func (p *BufferPool) pinLocked(f *Frame) {
	if p.policy == LRU {
		p.lruRemoveLocked(f)
	} else {
		f.refBit = true
	}
	f.pins++
}

// victimLocked returns an empty frame, evicting per the configured policy.
// The returned frame is not in the page table.
func (p *BufferPool) victimLocked() (*Frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f, nil
	}
	var f *Frame
	if p.policy == LRU {
		f = p.lruHead
		if f == nil {
			return nil, fmt.Errorf("%w (%d frames)", ErrNoFreeFrames, len(p.frames))
		}
	} else {
		f = p.clockVictimLocked()
		if f == nil {
			return nil, fmt.Errorf("%w (%d frames)", ErrNoFreeFrames, len(p.frames))
		}
	}
	// Write back dirty bytes BEFORE detaching the frame from the LRU list
	// and page table: if the write fails, the pool's state is untouched —
	// the page stays resident, dirty, and evictable, instead of the frame
	// leaking out of both the table and the free list. Write back while
	// holding the lock; correct first, the pool is not the bottleneck at
	// our page sizes.
	if f.dirty {
		if err := p.disk.Write(f.id, f.data[:]); err != nil {
			return nil, err
		}
		p.stats.DirtyOut++
		f.dirty = false
	}
	if p.policy == LRU {
		p.lruRemoveLocked(f)
	}
	delete(p.table, f.id)
	p.stats.Evictions++
	f.id = InvalidPageID
	return f, nil
}

// clockVictimLocked sweeps the hand over the frames: pinned frames are
// skipped, referenced frames get their bit cleared (second chance), the
// first unpinned unreferenced frame is the victim. Two full sweeps with no
// victim means everything is pinned.
func (p *BufferPool) clockVictimLocked() *Frame {
	for sweep := 0; sweep < 2*len(p.frames); sweep++ {
		f := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if f.pins > 0 || f.id == InvalidPageID {
			continue
		}
		if f.refBit {
			f.refBit = false
			continue
		}
		return f
	}
	return nil
}

// Unpin releases one pin on page id, marking the page dirty if the caller
// modified it. The page becomes evictable when its pin count reaches zero.
func (p *BufferPool) Unpin(id PageID, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.table[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	if f.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 && p.policy == LRU {
		p.lruPushBackLocked(f)
	}
	return nil
}

// Discard drops page id from the pool without writing it back, even if
// dirty — the page's contents are being abandoned (its table was dropped).
// Discarding a pinned page is an error: a pin means someone is still
// reading it, which the caller's locking was supposed to exclude. A
// non-resident page is a no-op.
func (p *BufferPool) Discard(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.table[id]
	if !ok {
		return nil
	}
	if f.pins > 0 {
		return fmt.Errorf("storage: discard of pinned page %d (%d pins)", id, f.pins)
	}
	if p.policy == LRU {
		p.lruRemoveLocked(f)
	}
	delete(p.table, id)
	f.id = InvalidPageID
	f.dirty = false
	f.loadErr = nil
	p.free = append(p.free, f)
	return nil
}

// FreePage discards page id from the pool and returns it to the disk
// manager's free list — the reclamation step DROP TABLE runs over a heap's
// page chain. The frame is discarded first so a later reuse of the id can
// never collide with a stale resident copy.
func (p *BufferPool) FreePage(id PageID) error {
	if err := p.Discard(id); err != nil {
		return err
	}
	return p.disk.Free(id)
}

// FlushAll writes every dirty resident page back to disk.
func (p *BufferPool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.table {
		if f.dirty {
			if err := p.disk.Write(id, f.data[:]); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}
