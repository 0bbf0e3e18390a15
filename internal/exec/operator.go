// Package exec implements the Volcano-style relational executor: scans,
// filters, projections, a similarity join, hash aggregation, sort, and
// limit — the substrate for ordinary SQL processing around model
// inference. The relation-centric matrix multiply (join + aggregation over
// tensor blocks) runs in package blocked, keyed by block coordinates.
package exec

import (
	"errors"
	"fmt"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/table"
)

// Operator is a pull-based relational operator. The contract is
// Open → Next* → Close; Next returns ok=false at end of stream.
type Operator interface {
	// Schema describes the tuples produced by Next.
	Schema() *table.Schema
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// Next produces the next tuple, or ok=false at the end.
	Next() (table.Tuple, bool, error)
	// Close releases resources. It must be safe to call after an error.
	Close() error
}

// ColBatcher is implemented by operators that can also produce decoded rows
// as columnar batches: the feature column of every row lands in the batch's
// one contiguous Feats buffer (see table.ColBatch), which consumers use
// directly as a tensor backing array. The PREDICT operator probes its child
// for this interface at Open and falls back to row-at-a-time Next when the
// child (a filter, an instrumented wrapper) cannot batch columnarly.
type ColBatcher interface {
	Operator
	// NextColBatch appends rows to cb until it is full or the input is
	// exhausted, returning the number appended. Fewer rows than cb's free
	// capacity means end of stream.
	NextColBatch(cb *table.ColBatch) (int, error)
}

// Cancellable is implemented by operators whose loops observe a
// query-cancellation token: scans check per tuple, and the blocking
// operators (joins, aggregates, sorts) check inside the pipeline-breaking
// loops in Open. The engine installs one token across every operator of a
// plan before Open; a nil token means "never cancelled".
type Cancellable interface {
	SetCancel(tok *lifecycle.Token)
}

// SetCancel installs tok on op if it supports cancellation; operators
// without long-running loops of their own are covered by their inputs.
func SetCancel(op Operator, tok *lifecycle.Token) {
	if c, ok := op.(Cancellable); ok {
		c.SetCancel(tok)
	}
}

// Collect drains op into a slice, handling Open/Close. Close runs however
// the drain ends, a failed Open included, so a pipeline breaker whose input
// loop fails still releases its inputs (a PREDICT's producer goroutine and
// compute token, a sort's spilled runs) through its own Close. A Close
// error after a clean iteration is returned — an operator whose teardown
// fails (e.g. a spill-file flush) must not report success.
func Collect(op Operator) ([]table.Tuple, error) {
	if err := op.Open(); err != nil {
		return nil, errors.Join(err, op.Close())
	}
	var out []table.Tuple
	for {
		t, ok, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if !ok {
			if cerr := op.Close(); cerr != nil {
				return nil, cerr
			}
			return out, nil
		}
		out = append(out, t)
	}
}

// MemScan produces tuples from an in-memory slice.
type MemScan struct {
	schema *table.Schema
	rows   []table.Tuple
	pos    int
	tok    *lifecycle.Token
}

// NewMemScan returns a scan over rows with the given schema.
func NewMemScan(schema *table.Schema, rows []table.Tuple) *MemScan {
	return &MemScan{schema: schema, rows: rows}
}

// Schema implements Operator.
func (m *MemScan) Schema() *table.Schema { return m.schema }

// Open implements Operator.
func (m *MemScan) Open() error { m.pos = 0; return nil }

// SetCancel implements Cancellable.
func (m *MemScan) SetCancel(tok *lifecycle.Token) { m.tok = tok }

// Next implements Operator.
func (m *MemScan) Next() (table.Tuple, bool, error) {
	if err := m.tok.Err(); err != nil {
		return nil, false, err
	}
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	t := m.rows[m.pos]
	m.pos++
	return t, true, nil
}

// Close implements Operator.
func (m *MemScan) Close() error { return nil }

// HeapScan produces tuples from a heap file, one pinned page at a time.
type HeapScan struct {
	heap *table.Heap
	snap uint64
	scan *table.Scanner
	tok  *lifecycle.Token
}

// NewHeapScan returns a scan over h reading the latest snapshot (every
// non-deleted row).
func NewHeapScan(h *table.Heap) *HeapScan { return &HeapScan{heap: h, snap: table.CSNMax} }

// NewHeapScanAt returns a scan over h pinned to the snapshot csn — the
// lock-free read path: the engine pins the committed CSN at statement start
// and the scan sees exactly the rows committed by then, never a concurrent
// writer's unpublished rows.
func NewHeapScanAt(h *table.Heap, csn uint64) *HeapScan { return &HeapScan{heap: h, snap: csn} }

// Schema implements Operator.
func (s *HeapScan) Schema() *table.Schema { return s.heap.Schema() }

// Open implements Operator.
func (s *HeapScan) Open() error { s.scan = s.heap.ScanAt(s.snap); return nil }

// SetCancel implements Cancellable.
func (s *HeapScan) SetCancel(tok *lifecycle.Token) { s.tok = tok }

// Next implements Operator.
func (s *HeapScan) Next() (table.Tuple, bool, error) {
	if err := s.tok.Err(); err != nil {
		return nil, false, err
	}
	if s.scan == nil {
		return nil, false, fmt.Errorf("exec: HeapScan.Next before Open")
	}
	return s.scan.Next()
}

// NextColBatch implements ColBatcher: one call decodes up to a batch of
// tuples pinning each heap page once, with the feature column swept into
// cb's contiguous buffer. Cancellation is observed per batch (a batch is at
// most cb's capacity, so a cancelled query still stops within one
// micro-batch).
func (s *HeapScan) NextColBatch(cb *table.ColBatch) (int, error) {
	if err := s.tok.Err(); err != nil {
		return 0, err
	}
	if s.scan == nil {
		return 0, fmt.Errorf("exec: HeapScan.NextColBatch before Open")
	}
	return s.scan.NextColumnar(cb)
}

// Close implements Operator.
func (s *HeapScan) Close() error { s.scan = nil; return nil }

// HeapLookup produces the tuples of a heap whose first column equals one
// key, through the heap's key index, against a pinned snapshot: the same
// rows in the same order as a HeapScan under a `first column = key` filter,
// without reading the pages of any other row.
type HeapLookup struct {
	heap *table.Heap
	key  int64
	snap uint64
	look *table.Lookup
	rids int // candidates the last Open found; survives Close for StageNote
	tok  *lifecycle.Token
}

// NewHeapLookupAt returns a key lookup over h pinned to the snapshot csn.
func NewHeapLookupAt(h *table.Heap, key int64, csn uint64) *HeapLookup {
	return &HeapLookup{heap: h, key: key, snap: csn}
}

// Schema implements Operator.
func (l *HeapLookup) Schema() *table.Schema { return l.heap.Schema() }

// Open implements Operator.
func (l *HeapLookup) Open() error {
	look, err := l.heap.LookupAt(l.key, l.snap)
	if err != nil {
		return err
	}
	l.look, l.rids = look, look.Len()
	return nil
}

// SetCancel implements Cancellable.
func (l *HeapLookup) SetCancel(tok *lifecycle.Token) { l.tok = tok }

// Next implements Operator. Cancellation is observed per row, so a key
// with millions of duplicates streams and stops like a scan.
func (l *HeapLookup) Next() (table.Tuple, bool, error) {
	if err := l.tok.Err(); err != nil {
		return nil, false, err
	}
	if l.look == nil {
		return nil, false, fmt.Errorf("exec: HeapLookup.Next before Open")
	}
	return l.look.Next()
}

// Close implements Operator.
func (l *HeapLookup) Close() error { l.look = nil; return nil }

// StageNote implements Noter.
func (l *HeapLookup) StageNote() string {
	return fmt.Sprintf("index lookup %s = %d (%d rids)", l.heap.Schema().Cols[0].Name, l.key, l.rids)
}

// Predicate decides whether a tuple passes a filter.
type Predicate func(table.Tuple) (bool, error)

// Filter passes through tuples satisfying a predicate.
type Filter struct {
	in   Operator
	pred Predicate
}

// NewFilter returns a filter over in.
func NewFilter(in Operator, pred Predicate) *Filter {
	return &Filter{in: in, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *table.Schema { return f.in.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.in.Open() }

// Next implements Operator.
func (f *Filter) Next() (table.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := f.pred(t)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return t, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.in.Close() }

// Project keeps the named columns, in order.
type Project struct {
	in     Operator
	schema *table.Schema
	idx    []int
}

// NewProject returns a projection of in onto cols.
func NewProject(in Operator, cols ...string) (*Project, error) {
	schema, err := in.Schema().Project(cols...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = in.Schema().ColIndex(c)
	}
	return &Project{in: in, schema: schema, idx: idx}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *table.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error { return p.in.Open() }

// Next implements Operator.
func (p *Project) Next() (table.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(table.Tuple, len(p.idx))
	for i, j := range p.idx {
		out[i] = t[j]
	}
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.in.Close() }

// MapFunc transforms a tuple; it is how fine-grained UDFs (e.g. a per-block
// tensor kernel) plug into the relational pipeline.
type MapFunc func(table.Tuple) (table.Tuple, error)

// Map applies a tuple transformation with an explicit output schema.
type Map struct {
	in     Operator
	schema *table.Schema
	fn     MapFunc
}

// NewMap returns a map operator producing tuples of outSchema.
func NewMap(in Operator, outSchema *table.Schema, fn MapFunc) *Map {
	return &Map{in: in, schema: outSchema, fn: fn}
}

// Schema implements Operator.
func (m *Map) Schema() *table.Schema { return m.schema }

// Open implements Operator.
func (m *Map) Open() error { return m.in.Open() }

// Next implements Operator.
func (m *Map) Next() (table.Tuple, bool, error) {
	t, ok, err := m.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out, err := m.fn(t)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Close implements Operator.
func (m *Map) Close() error { return m.in.Close() }

// Limit passes through at most n tuples.
type Limit struct {
	in   Operator
	n    int
	seen int
}

// NewLimit returns a limit of n rows over in.
func NewLimit(in Operator, n int) *Limit { return &Limit{in: in, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() *table.Schema { return l.in.Schema() }

// Open implements Operator.
func (l *Limit) Open() error { l.seen = 0; return l.in.Open() }

// Next implements Operator.
func (l *Limit) Next() (table.Tuple, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	t, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return t, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.in.Close() }
