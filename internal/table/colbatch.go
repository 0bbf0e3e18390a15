package table

import (
	"encoding/binary"
	"fmt"
	"math"

	"tensorbase/internal/storage"
)

// Columnar batch decode: the PREDICT hot path reads a heap of feature
// vectors, flattens them into one dense (rows × width) matrix, and hands the
// matrix to a model. The row-at-a-time path decodes each record into a fresh
// tuple and then copies its feature vector into the batch buffer — one
// decode pass plus one copy per row. A ColBatch fuses the two: the feature
// column of every record is bulk-decoded (decodeF32s) straight into one
// contiguous Feats buffer sized for the whole batch, and that buffer IS the
// input tensor's backing array. Tuples' feature values alias disjoint
// segments of Feats, so nothing is decoded or copied twice.

// ColBatch accumulates up to a fixed number of decoded rows with the
// designated FloatVec feature column landing in one contiguous buffer.
// Tuples[i]'s feature value aliases Feats[i*Width:(i+1)*Width]; both are
// valid as long as the batch itself, so a batch must not be reused while
// downstream holds its tuples — allocate one per batch. The tuples are
// carved from one array per batch, each with room for one more value past
// its end: the batch's owner may extend a row in place with
// append(Tuples[i], v), as PREDICT does with its prediction column.
type ColBatch struct {
	schema  *Schema
	featIdx int
	rows    int // capacity

	// Width is the feature vector width, fixed by the first appended row.
	Width int
	// Feats holds the appended rows' feature vectors back to back:
	// len(Feats) == len(Tuples)*Width.
	Feats []float32
	// Tuples holds the decoded rows in append order.
	Tuples []Tuple

	vals []Value // the tuples' backing array: rows × (columns + 1)
}

// NewColBatch returns an empty batch of at most rows tuples of schema s,
// collecting feature column featIdx (which must be a FloatVec column).
func NewColBatch(s *Schema, featIdx, rows int) (*ColBatch, error) {
	if featIdx < 0 || featIdx >= s.Len() || s.Cols[featIdx].Type != FloatVec {
		return nil, fmt.Errorf("table: columnar batch feature column %d is not a FloatVec column of the schema", featIdx)
	}
	if rows < 1 {
		return nil, fmt.Errorf("table: columnar batch capacity %d < 1", rows)
	}
	return &ColBatch{schema: s, featIdx: featIdx, rows: rows, Width: -1, Tuples: make([]Tuple, 0, rows)}, nil
}

// Rows returns the number of appended rows.
func (cb *ColBatch) Rows() int { return len(cb.Tuples) }

// Full reports whether the batch reached its row capacity.
func (cb *ColBatch) Full() bool { return len(cb.Tuples) >= cb.rows }

// AppendRecord decodes one encoded record into the batch. The feature
// column is swept directly into the next Feats segment; other columns decode
// as usual. All rows must agree on the feature width (the first row fixes
// it, and fixes the Feats allocation at capacity×width, so the buffer never
// reallocates and earlier rows' aliases stay valid).
func (cb *ColBatch) AppendRecord(rec []byte) error {
	if cb.Full() {
		return fmt.Errorf("table: columnar batch is full (%d rows)", cb.rows)
	}
	if _, err := measureVecs(cb.schema, rec); err != nil {
		return err
	}
	n := cb.schema.Len()
	if cb.vals == nil {
		cb.vals = make([]Value, 0, cb.rows*(n+1))
	}
	used := len(cb.vals)
	cb.vals = cb.vals[:used+n+1]
	t := Tuple(cb.vals[used : used+n : used+n+1])
	off := 0
	for i, c := range cb.schema.Cols {
		switch c.Type {
		case Int64:
			t[i] = IntVal(int64(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case Float64:
			t[i] = FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		case Text:
			n, sz := binary.Uvarint(rec[off:])
			off += sz
			t[i] = TextVal(string(rec[off : off+int(n)]))
			off += int(n)
		case FloatVec:
			n, sz := binary.Uvarint(rec[off:])
			off += sz
			var vec []float32
			if i == cb.featIdx {
				if cb.Width < 0 {
					cb.Width = int(n)
					cb.Feats = make([]float32, 0, cb.rows*cb.Width)
				} else if int(n) != cb.Width {
					return fmt.Errorf("table: ragged feature vectors in columnar batch (%d vs %d)", n, cb.Width)
				}
				used := len(cb.Feats)
				cb.Feats = cb.Feats[: used+int(n) : cap(cb.Feats)]
				vec = cb.Feats[used : used+int(n) : used+int(n)]
			} else {
				vec = make([]float32, n)
			}
			decodeF32s(vec, rec[off:])
			off += 4 * int(n)
			t[i] = VecVal(vec)
		}
	}
	if off != len(rec) {
		return fmt.Errorf("table: %d trailing bytes after decoding tuple", len(rec)-off)
	}
	cb.Tuples = append(cb.Tuples, t)
	return nil
}

// NextColumnar fills cb with tuples from the scan position until the batch
// is full or the heap is exhausted, returning the number appended. Unlike
// Next, which pins its page once per tuple, one call pins each visited page
// once for all its records. It holds the heap's read latch like Next, so it
// interleaves safely with concurrent inserts, and applies the scanner's
// snapshot CSN, so the PREDICT hot path gets snapshot isolation at columnar
// speed. A return of fewer rows than the batch's free capacity means the
// scan reached the end of the heap.
func (s *Scanner) NextColumnar(cb *ColBatch) (int, error) {
	s.heap.mu.RLock()
	defer s.heap.mu.RUnlock()
	appended := 0
	for !s.done && !cb.Full() {
		f, err := s.heap.pool.Fetch(s.page)
		if err != nil {
			return appended, err
		}
		page := f.Page()
		for s.slot < page.NumSlots() && !cb.Full() {
			rec, ok, rerr := page.Record(s.slot)
			if rerr != nil {
				s.heap.pool.Unpin(s.page, false)
				return appended, fmt.Errorf("table: page %d slot %d: %w", s.page, s.slot, rerr)
			}
			slot := s.slot
			s.slot++
			if !ok {
				continue // deleted
			}
			vis, verr := visibleAt(rec, s.snap)
			if verr != nil {
				s.heap.pool.Unpin(s.page, false)
				return appended, fmt.Errorf("table: page %d slot %d: %w", s.page, slot, verr)
			}
			if !vis {
				continue // outside this snapshot
			}
			if err := cb.AppendRecord(rec[versionHdrSize:]); err != nil {
				s.heap.pool.Unpin(s.page, false)
				return appended, err
			}
			appended++
		}
		pageDone := s.slot >= page.NumSlots()
		next := page.Next()
		if err := s.heap.pool.Unpin(s.page, false); err != nil {
			return appended, err
		}
		if !pageDone {
			break // batch filled mid-page; resume here next call
		}
		if next == storage.InvalidPageID {
			s.done = true
			break
		}
		s.page = next
		s.slot = 0
	}
	return appended, nil
}
