package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"tensorbase/internal/storage"
)

// RID identifies a record: page + slot.
type RID struct {
	Page storage.PageID
	Slot int
}

// MVCC version header. Every stored record is prefixed with two
// little-endian uint64s: the commit sequence number (CSN) that created the
// row and the CSN that deleted it. A snapshot pinned at CSN s sees a row
// iff created ≤ s < deleted. Two sentinels keep the scheme zero-cost for
// non-transactional users:
//
//   - created == 0 ("always") marks a row visible to every snapshot — the
//     stamp plain Insert/InsertRecord writes, so direct heap users (spill
//     runs, tensor block stores, tests) never think about versions;
//   - deleted == CSNMax ("never") marks a live row.
//
// Rows are only ever stamped by the engine's commit protocol (InsertAt) or
// physically removed (Rollback, for aborted statements), so a committed
// row's header never changes after publication.
const (
	versionHdrSize = 16
	// CSNAlways marks a record visible to every snapshot.
	CSNAlways = uint64(0)
	// CSNMax is the "latest" snapshot: it sees every non-deleted row.
	CSNMax = ^uint64(0)
)

// visibleAt reports whether the version-prefixed record rec is visible to a
// snapshot pinned at snap.
func visibleAt(rec []byte, snap uint64) (bool, error) {
	if len(rec) < versionHdrSize {
		return false, fmt.Errorf("table: %d-byte record shorter than version header", len(rec))
	}
	created := binary.LittleEndian.Uint64(rec)
	deleted := binary.LittleEndian.Uint64(rec[8:])
	return created <= snap && (deleted == CSNMax || snap < deleted), nil
}

// payload strips the version header off a stored record.
func payload(rec []byte) ([]byte, error) {
	if len(rec) < versionHdrSize {
		return nil, fmt.Errorf("table: %d-byte record shorter than version header", len(rec))
	}
	return rec[versionHdrSize:], nil
}

// MaxTupleSize is the largest encoded tuple a heap accepts: a page record
// minus the version header.
const MaxTupleSize = storage.MaxRecordSize - versionHdrSize

// Heap is an unordered collection of tuples stored as a chain of slotted
// pages in the buffer pool. Large tuples are rejected rather than
// overflow-chained; tensor blocks are sized by the caller to fit a page.
//
// Latching contract: the heap carries one reader/writer latch. Insert and
// InsertRecord take it exclusively — they mutate the tail page's bytes, the
// chain pointers, the row count and the key index, so writers serialise (as
// does the one LookupAt that builds the index). Get, GetInto, Scanner.Next,
// Lookup.Next, RIDs, and Count take it shared, so any number of readers
// runs concurrently (with each other, and with readers of other heaps on
// the same buffer pool). Page pins protect resident bytes from eviction;
// the latch is what keeps a reader from observing a half-applied insert
// into the page it is decoding. This is what lets the parallel relation-
// centric executor fan block fetches and result appends across workers.
//
// Above the latch sits the statement-scoped read gate (BeginRead/EndRead/
// Drain): since MVCC snapshot reads no longer hold table locks, DROP TABLE
// uses the gate to wait out in-flight read statements before handing the
// heap's pages to the free list.
type Heap struct {
	mu     sync.RWMutex
	pool   *storage.BufferPool
	schema *Schema
	first  storage.PageID
	last   storage.PageID
	count  int64

	// keys is the volatile key index behind LookupAt: the first column's
	// INT value → the RIDs of every physically present record holding it,
	// in scan order (records only append to the tail page and slots are
	// never reused, so placement order is chain order). It is nil until the
	// first LookupAt builds it from the pages; from then on InsertRecordAt
	// and Rollback maintain it under mu, and ResetTail drops it. It is never
	// logged: the pages are its only source of truth.
	keys map[int64][]RID

	// gate is held shared for the duration of a lock-free read statement
	// and exclusively by DROP TABLE before page reclamation. It orders
	// whole statements, not page accesses — that is mu's job.
	gate sync.RWMutex
}

// NewHeap creates an empty heap with one allocated page.
func NewHeap(pool *storage.BufferPool, schema *Schema) (*Heap, error) {
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	id := f.ID()
	if err := pool.Unpin(id, true); err != nil {
		return nil, err
	}
	return &Heap{pool: pool, schema: schema, first: id, last: id}, nil
}

// OpenHeap re-attaches to an existing chain starting at first. The caller
// supplies the row count (tracked by the catalog).
func OpenHeap(pool *storage.BufferPool, schema *Schema, first, last storage.PageID, count int64) *Heap {
	return &Heap{pool: pool, schema: schema, first: first, last: last, count: count}
}

// Schema returns the heap's tuple schema.
func (h *Heap) Schema() *Schema { return h.schema }

// FirstPage returns the head of the page chain.
func (h *Heap) FirstPage() storage.PageID { return h.first }

// LastPage returns the tail of the page chain.
func (h *Heap) LastPage() storage.PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.last
}

// Count returns the number of inserted tuples.
func (h *Heap) Count() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// BeginRead enters the heap's statement read gate: it blocks while a DROP
// is draining readers, and DROP's reclamation blocks until every reader
// that entered has left. The engine brackets each lock-free read statement
// with BeginRead/EndRead.
func (h *Heap) BeginRead() { h.gate.RLock() }

// EndRead leaves the statement read gate.
func (h *Heap) EndRead() { h.gate.RUnlock() }

// Drain blocks until every in-flight read statement has left the gate and
// holds new ones out until Release is called. DROP TABLE drains a heap
// after unpublishing it from the catalog and before freeing its pages.
func (h *Heap) Drain() { h.gate.Lock() }

// Release reopens the gate after Drain. Readers that then enter must
// re-check the catalog: the heap they gated on may no longer be published.
func (h *Heap) Release() { h.gate.Unlock() }

// Insert appends a tuple visible to every snapshot and returns its RID,
// extending the page chain as needed. Insert is latched: concurrent
// inserters serialise, and readers never see a partially written tail page.
func (h *Heap) Insert(t Tuple) (RID, error) {
	return h.InsertAt(t, CSNAlways)
}

// InsertAt appends a tuple stamped with the creating statement's CSN: rows
// become visible only to snapshots pinned at or after csn, which the
// engine's commit protocol publishes after the WAL commit is durable.
func (h *Heap) InsertAt(t Tuple, csn uint64) (RID, error) {
	rec, err := Encode(h.schema, t)
	if err != nil {
		return RID{}, err
	}
	return h.InsertRecordAt(rec, csn)
}

// InsertRecord appends a pre-encoded record visible to every snapshot.
func (h *Heap) InsertRecord(rec []byte) (RID, error) {
	return h.InsertRecordAt(rec, CSNAlways)
}

// InsertRecordAt appends a pre-encoded record under the heap's write latch,
// stamped with csn (see InsertAt).
func (h *Heap) InsertRecordAt(rec []byte, csn uint64) (RID, error) {
	if len(rec) > MaxTupleSize {
		return RID{}, fmt.Errorf("table: record of %d bytes exceeds page capacity %d", len(rec), MaxTupleSize)
	}
	stored := make([]byte, versionHdrSize+len(rec))
	binary.LittleEndian.PutUint64(stored, csn)
	binary.LittleEndian.PutUint64(stored[8:], CSNMax)
	copy(stored[versionHdrSize:], rec)

	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return RID{}, err
	}
	page := f.Page()
	slot, err := page.Insert(stored)
	if err == nil {
		rid := RID{Page: h.last, Slot: slot}
		h.placed(rid, stored)
		return rid, h.pool.Unpin(h.last, true)
	}
	if !errors.Is(err, storage.ErrPageFull) {
		h.pool.Unpin(h.last, false)
		return RID{}, err
	}
	// Extend the chain with a fresh page.
	nf, err := h.pool.NewPage()
	if err != nil {
		h.pool.Unpin(h.last, false)
		return RID{}, err
	}
	newID := nf.ID()
	page.SetNext(newID)
	if err := h.pool.Unpin(h.last, true); err != nil {
		h.pool.Unpin(newID, false)
		return RID{}, err
	}
	slot, err = nf.Page().Insert(stored)
	if err != nil {
		h.pool.Unpin(newID, false)
		return RID{}, err
	}
	h.last = newID
	rid := RID{Page: newID, Slot: slot}
	h.placed(rid, stored)
	return rid, h.pool.Unpin(newID, true)
}

// placed accounts for a record just written at rid: the row count and,
// once built, the key index. The caller holds mu exclusively.
func (h *Heap) placed(rid RID, stored []byte) {
	h.count++
	if h.keys == nil {
		return
	}
	if k, ok := recordKey(stored); ok {
		h.keys[k] = append(h.keys[k], rid)
	}
}

// recordKey reads the first-column key of a stored (version-prefixed)
// record: its first 8 payload bytes, as an INT column encodes them.
func recordKey(stored []byte) (int64, bool) {
	if len(stored) < versionHdrSize+8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(stored[versionHdrSize:])), true
}

// Rollback physically removes the records an aborted statement inserted
// (identified by the RIDs its inserts returned). The aborted rows were
// never visible to any snapshot — their CSN was never published — so
// deleting the slots leaves no trace beyond dead bytes on the page. Pages
// the statement appended to the chain stay in the chain, empty.
func (h *Heap) Rollback(rids []RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, rid := range rids {
		f, err := h.pool.Fetch(rid.Page)
		if err != nil {
			return err
		}
		if h.keys != nil {
			if rec, ok, _ := f.Record(rid.Slot); ok {
				h.unindex(rec, rid)
			}
		}
		deleted := f.Page().Delete(rid.Slot)
		if err := h.pool.Unpin(rid.Page, deleted); err != nil {
			return err
		}
		if deleted {
			h.count--
		}
	}
	return nil
}

// unindex removes rid from the key index entry of the stored record it
// holds. Rolled-back rows are the newest, so the search runs from the end.
// The caller holds mu exclusively.
func (h *Heap) unindex(stored []byte, rid RID) {
	k, ok := recordKey(stored)
	if !ok {
		return
	}
	list := h.keys[k]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == rid {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(h.keys, k)
	} else {
		h.keys[k] = list
	}
}

// Get fetches and decodes the tuple at rid.
func (h *Heap) Get(rid RID) (Tuple, error) {
	t, _, err := h.GetInto(rid, nil, nil)
	return t, err
}

// GetInto fetches the tuple at rid decoding into the caller's reusable
// tuple header and float scratch (see DecodeInto) — the allocation-free
// fetch path the streaming block multiply's inner loop runs per k-step.
// It takes the heap's read latch, so it is safe against concurrent Insert.
func (h *Heap) GetInto(rid RID, t Tuple, scratch []float32) (Tuple, []float32, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, scratch, err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, ok, rerr := f.Record(rid.Slot)
	if rerr != nil {
		return nil, scratch, fmt.Errorf("table: record at page %d slot %d: %w", rid.Page, rid.Slot, rerr)
	}
	if !ok {
		return nil, scratch, fmt.Errorf("table: no record at page %d slot %d", rid.Page, rid.Slot)
	}
	body, err := payload(rec)
	if err != nil {
		return nil, scratch, fmt.Errorf("table: page %d slot %d: %w", rid.Page, rid.Slot, err)
	}
	return DecodeInto(h.schema, body, t, scratch)
}

// RIDs returns the record ids of every record visible to the latest
// snapshot, in scan order — the same order Scan yields tuples, so position
// n of both refers to the same row. Index builders use this to map index
// entries back to records.
func (h *Heap) RIDs() ([]RID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []RID
	err := h.eachRecord(func(rid RID, rec []byte) error {
		vis, err := visibleAt(rec, CSNMax)
		if vis {
			out = append(out, rid)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachRecord calls fn, in scan order, with every physically present stored
// record, whatever its visibility. The record aliases the pinned page and
// is valid only during the call. The caller holds mu.
func (h *Heap) eachRecord(fn func(RID, []byte) error) error {
	page := h.first
	for page != storage.InvalidPageID {
		f, err := h.pool.Fetch(page)
		if err != nil {
			return err
		}
		p := f.Page()
		for slot := 0; slot < p.NumSlots(); slot++ {
			rec, ok, err := p.Record(slot)
			if err == nil && ok {
				err = fn(RID{Page: page, Slot: slot}, rec)
			}
			if err != nil {
				h.pool.Unpin(page, false)
				return fmt.Errorf("table: page %d slot %d: %w", page, slot, err)
			}
		}
		next := p.Next()
		if err := h.pool.Unpin(page, false); err != nil {
			return err
		}
		page = next
	}
	return nil
}

// Pages returns the heap's page chain in order, head first. DROP TABLE
// uses it to hand every page back to the storage free list.
func (h *Heap) Pages() ([]storage.PageID, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []storage.PageID
	seen := make(map[storage.PageID]struct{})
	page := h.first
	for page != storage.InvalidPageID {
		if _, dup := seen[page]; dup {
			return nil, fmt.Errorf("table: page chain cycles at page %d", page)
		}
		seen[page] = struct{}{}
		out = append(out, page)
		f, err := h.pool.Fetch(page)
		if err != nil {
			return nil, err
		}
		next := f.Page().Next()
		if err := h.pool.Unpin(page, false); err != nil {
			return nil, err
		}
		page = next
	}
	return out, nil
}

// LastSlots returns the tail page's slot count — recorded per table by the
// checkpoint so recovery can roll the tail back to exactly this state
// before replaying the WAL.
func (h *Heap) LastSlots() (int, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return 0, err
	}
	n := f.Page().NumSlots()
	return n, h.pool.Unpin(h.last, false)
}

// ResetTail rolls the heap back to the state a checkpoint recorded: the
// tail page keeps its first lastSlots slots and stops chaining, and the
// row count is restored. Recovery calls it before WAL replay so replayed
// inserts land exactly once; on a cleanly closed database it is a no-op.
// The key index is dropped and rebuilt by the next LookupAt.
func (h *Heap) ResetTail(lastSlots int, count int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.keys = nil
	f, err := h.pool.Fetch(h.last)
	if err != nil {
		return err
	}
	p := f.Page()
	dirty := p.NumSlots() != lastSlots || p.Next() != storage.InvalidPageID
	if dirty {
		if err := p.TruncateSlots(lastSlots); err != nil {
			h.pool.Unpin(h.last, false)
			return err
		}
		p.SetNext(storage.InvalidPageID)
	}
	if err := h.pool.Unpin(h.last, dirty); err != nil {
		return err
	}
	h.count = count
	return nil
}

// Scanner iterates the heap front to back against a fixed snapshot CSN.
// It pins one page at a time, so scans of arbitrarily large heaps run in
// constant memory — the property the relation-centric execution path
// relies on.
type Scanner struct {
	heap *Heap
	snap uint64
	page storage.PageID
	slot int
	done bool
}

// Scan returns a scanner positioned before the first tuple, reading the
// latest snapshot (every non-deleted row, including unpublished ones —
// callers that need isolation use ScanAt).
func (h *Heap) Scan() *Scanner {
	return h.ScanAt(CSNMax)
}

// ScanAt returns a scanner pinned to the snapshot csn: it yields exactly
// the rows committed at or before csn, regardless of concurrent writers.
// This is the lock-free read path — no table lock is needed, because a
// writer's rows carry a CSN above every pinned snapshot until its commit
// publishes them.
func (h *Heap) ScanAt(csn uint64) *Scanner {
	return &Scanner{heap: h, snap: csn, page: h.first}
}

// Next returns the next visible tuple, or ok=false at the end. Each call
// holds the heap's read latch, so a scan interleaves safely with concurrent
// inserts; the snapshot CSN decides visibility, so rows a concurrent writer
// appends behind the scan position are skipped unless the snapshot covers
// them.
func (s *Scanner) Next() (Tuple, bool, error) {
	s.heap.mu.RLock()
	defer s.heap.mu.RUnlock()
	for !s.done {
		f, err := s.heap.pool.Fetch(s.page)
		if err != nil {
			return nil, false, err
		}
		page := f.Page()
		for s.slot < page.NumSlots() {
			rec, ok, rerr := page.Record(s.slot)
			if rerr != nil {
				s.heap.pool.Unpin(s.page, false)
				return nil, false, fmt.Errorf("table: page %d slot %d: %w", s.page, s.slot, rerr)
			}
			slot := s.slot
			s.slot++
			if !ok {
				continue // deleted
			}
			vis, verr := visibleAt(rec, s.snap)
			if verr != nil {
				s.heap.pool.Unpin(s.page, false)
				return nil, false, fmt.Errorf("table: page %d slot %d: %w", s.page, slot, verr)
			}
			if !vis {
				continue // outside this snapshot
			}
			t, err := Decode(s.heap.schema, rec[versionHdrSize:])
			if uerr := s.heap.pool.Unpin(s.page, false); uerr != nil && err == nil {
				err = uerr
			}
			if err != nil {
				return nil, false, err
			}
			return t, true, nil
		}
		next := page.Next()
		if err := s.heap.pool.Unpin(s.page, false); err != nil {
			return nil, false, err
		}
		if next == storage.InvalidPageID {
			s.done = true
			break
		}
		s.page = next
		s.slot = 0
	}
	return nil, false, nil
}

// Lookup iterates the rows whose first column equals one key, against a
// fixed snapshot CSN: the key-index twin of Scanner.
type Lookup struct {
	heap *Heap
	snap uint64
	rids []RID
	pos  int
}

// LookupAt returns an iterator over the rows whose first (INT) column
// equals key and that are visible at snapshot csn, in scan order: it yields
// exactly what ScanAt(csn) filtered on that column yields. The first call
// on a heap builds its key index.
//
// The key's RID list is copied once, here, after the caller pinned csn.
// That copy is complete for csn because a row is placed in the heap and in
// the index, under mu, before its statement's CSN publishes: every row
// visible at csn is already listed. Rows placed later carry a CSN above
// csn, and rows rolled back later read as deleted slots; Next skips both.
func (h *Heap) LookupAt(key int64, csn uint64) (*Lookup, error) {
	if h.schema.Len() == 0 || h.schema.Cols[0].Type != Int64 {
		return nil, fmt.Errorf("table: key lookup needs an INT first column")
	}
	h.mu.RLock()
	if h.keys != nil {
		defer h.mu.RUnlock()
		return &Lookup{heap: h, snap: csn, rids: append([]RID(nil), h.keys[key]...)}, nil
	}
	h.mu.RUnlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.keys == nil {
		keys := make(map[int64][]RID)
		err := h.eachRecord(func(rid RID, rec []byte) error {
			if k, ok := recordKey(rec); ok {
				keys[k] = append(keys[k], rid)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("table: building key index: %w", err)
		}
		h.keys = keys
	}
	return &Lookup{heap: h, snap: csn, rids: append([]RID(nil), h.keys[key]...)}, nil
}

// Len returns how many records held the key when the lookup began, visible
// at its snapshot or not.
func (l *Lookup) Len() int { return len(l.rids) }

// Next returns the next visible tuple with the key, or ok=false at the end.
// Each record is fetched under its own hold of the heap's read latch, so a
// lookup over many duplicates interleaves with writers like a scan does.
func (l *Lookup) Next() (Tuple, bool, error) {
	for l.pos < len(l.rids) {
		rid := l.rids[l.pos]
		l.pos++
		t, ok, err := l.heap.fetchVisible(rid, l.snap)
		if err != nil || ok {
			return t, ok, err
		}
	}
	return nil, false, nil
}

// fetchVisible decodes the record at rid when it is present and visible at
// snap; ok is false for a rolled-back slot or a row outside the snapshot.
func (h *Heap) fetchVisible(rid RID, snap uint64) (Tuple, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, ok, err := f.Record(rid.Slot)
	if err == nil && ok {
		ok, err = visibleAt(rec, snap)
	}
	if err != nil {
		return nil, false, fmt.Errorf("table: page %d slot %d: %w", rid.Page, rid.Slot, err)
	}
	if !ok {
		return nil, false, nil
	}
	t, err := Decode(h.schema, rec[versionHdrSize:])
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}
